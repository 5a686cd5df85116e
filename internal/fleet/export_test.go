package fleet

import "pimflow/internal/verify"

// StatusOf exposes the HTTP status mapping to the external tests.
var StatusOf = statusOf

// ForgeHop appends a forged hop row to the fleet's live hop log, as a
// faulty router would record it.
func (f *Fleet) ForgeHop(h verify.FleetHop) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.hopLog.Append(h)
}
