// The schedule certificate is the serving stack's audit trail on the
// virtual timeline: every successful lease, its member requests, and
// the completion-frontier stamp of every release, recorded as plain
// data that verify.Schedule can check against the SR-* rules after the
// fact. Recording is off by default (Config.Certify) because a long-
// lived server would accumulate it without bound; the replay harness
// and the -verify serving mode turn it on for bounded runs.
//
//pimflow:virtual-time

package serve

import (
	"slices"
	"sync"

	"pimflow/internal/verify"
)

// certRecorder accumulates the schedule certificate. The frontier hook
// fires under the scheduler's lock (release order), batch recording
// under the recorder's own; the two never nest the other way, so the
// sched.mu -> rec.mu order is acyclic. Its logs hold a row per lease,
// request and release for the whole run, so they grow by doubling (see
// grow) rather than by append's smaller steps for large slices.
type certRecorder struct {
	mu        sync.Mutex
	leases    []verify.ScheduleLease           // guarded by mu
	requests  []verify.ScheduleRequest         // guarded by mu
	frontiers []verify.ScheduleFrontier        // guarded by mu
	policies  map[string]verify.SchedulePolicy // guarded by mu
}

func newCertRecorder() *certRecorder {
	return &certRecorder{policies: map[string]verify.SchedulePolicy{}}
}

// frontier records one release's frontier stamp; it is the scheduler's
// onRelease hook, invoked under the scheduler lock.
func (c *certRecorder) frontier(leaseID uint64, frontier int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.frontiers = append(grow(c.frontiers, 1), verify.ScheduleFrontier{LeaseID: leaseID, Frontier: frontier})
}

// batch records one served batch: the lease that held the machine and
// every member's reported timeline. Called by process before the lease
// is released, so the frontier record never precedes its lease record.
func (c *certRecorder) batch(l Lease, lm *LoadedModel, resps []InferResponse) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.leases = append(grow(c.leases, 1), verify.ScheduleLease{
		ID: l.id, Model: lm.Spec.Name, Start: l.Start, End: l.End,
		GPU: l.Demand.GPU, PIM: l.Demand.PIM, Batch: len(resps),
	})
	c.requests = grow(c.requests, len(resps))
	for i := range resps {
		r := &resps[i]
		c.requests = append(c.requests, verify.ScheduleRequest{
			ID:           r.RequestID,
			Model:        r.Model,
			LeaseID:      l.id,
			Arrival:      r.ArrivalCycle,
			BatchArrival: r.ArrivalCycle + r.BatchWaitCycles,
			Start:        r.StartCycle,
			End:          r.EndCycle,
			BatchWait:    r.BatchWaitCycles,
			LeaseWait:    r.LeaseWaitCycles,
			Execute:      r.ExecuteCycles,
			Latency:      r.LatencyCycles,
		})
	}
	c.policies[lm.Spec.Name] = verify.SchedulePolicy{
		MaxBatch:     lm.Batch.MaxBatch,
		WindowCycles: lm.Batch.WindowCycles,
	}
}

// grow makes room for n more elements, at least doubling the capacity
// when it has to reallocate.
func grow[E any](s []E, n int) []E {
	if len(s)+n <= cap(s) {
		return s
	}
	return slices.Grow(s, max(n, len(s)))
}

// snapshot copies the accumulated certificate.
func (c *certRecorder) snapshot(m Machine) verify.ScheduleCertificate {
	c.mu.Lock()
	defer c.mu.Unlock()
	cert := verify.ScheduleCertificate{
		GPUChannels: m.GPUChannels,
		PIMChannels: m.PIMChannels,
		Leases:      append([]verify.ScheduleLease(nil), c.leases...),
		Requests:    append([]verify.ScheduleRequest(nil), c.requests...),
		Frontiers:   append([]verify.ScheduleFrontier(nil), c.frontiers...),
		Policies:    make(map[string]verify.SchedulePolicy, len(c.policies)),
	}
	for name, p := range c.policies {
		cert.Policies[name] = p
	}
	return cert
}

// Certifying reports whether the server is recording a schedule
// certificate (Config.Certify).
func (s *Server) Certifying() bool { return s.cert != nil }

// Certificate snapshots the schedule certificate recorded so far; pass
// it to verify.Schedule to check the SR-* invariants. Without
// Config.Certify the certificate is empty (and trivially valid) — check
// Certifying first when emptiness must mean "nothing served".
func (s *Server) Certificate() verify.ScheduleCertificate {
	if s.cert == nil {
		return verify.ScheduleCertificate{
			GPUChannels: s.cfg.Machine.GPUChannels,
			PIMChannels: s.cfg.Machine.PIMChannels,
		}
	}
	return s.cert.snapshot(s.cfg.Machine)
}
