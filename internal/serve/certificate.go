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
	"maps"
	"sync"

	"pimflow/internal/verify"
)

// certRecorder accumulates the schedule certificate. The frontier hook
// fires under the scheduler's lock (release order), batch recording
// under the recorder's own; the two never nest the other way, so the
// sched.mu -> rec.mu order is acyclic. Its logs hold a row per lease,
// request and release for the whole run in fixed-size pages (CertLog),
// so recording never moves a row; a snapshot copies each log once.
type certRecorder struct {
	mu        sync.Mutex
	leases    CertLog[verify.ScheduleLease]    // guarded by mu
	requests  CertLog[verify.ScheduleRequest]  // guarded by mu
	frontiers CertLog[verify.ScheduleFrontier] // guarded by mu
	policies  map[string]verify.SchedulePolicy // guarded by mu; each name's first policy
	// by lease ID, each lease batched under another policy than its name's first
	leasePolicies map[uint64]verify.SchedulePolicy // guarded by mu
}

func newCertRecorder() *certRecorder {
	return &certRecorder{policies: map[string]verify.SchedulePolicy{}, leasePolicies: map[uint64]verify.SchedulePolicy{}}
}

// frontier records one release's frontier stamp; it is the scheduler's
// onRelease hook, invoked under the scheduler lock.
func (c *certRecorder) frontier(leaseID uint64, frontier int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.frontiers.Append(verify.ScheduleFrontier{LeaseID: leaseID, Frontier: frontier})
}

// batch records one served batch: the lease that held the machine and
// every member's reported timeline. Called by process before the lease
// is released, so the frontier record never precedes its lease record.
func (c *certRecorder) batch(l Lease, lm *LoadedModel, resps []InferResponse) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.leases.Append(verify.ScheduleLease{
		ID: l.id, Model: lm.Spec.Name, Start: l.Start, End: l.End,
		GPU: l.Demand.GPU, PIM: l.Demand.PIM, Batch: len(resps),
	})
	// A name's first policy goes to the model table; a lease batched
	// under another one (the name was reloaded) is listed by its ID.
	pol := verify.SchedulePolicy{MaxBatch: lm.Batch.MaxBatch, WindowCycles: lm.Batch.WindowCycles}
	if first, ok := c.policies[lm.Spec.Name]; !ok {
		c.policies[lm.Spec.Name] = pol
	} else if first != pol {
		c.leasePolicies[l.id] = pol
	}
	for i := range resps {
		r := &resps[i]
		c.requests.Append(verify.ScheduleRequest{
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
}

// snapshot copies the accumulated certificate.
func (c *certRecorder) snapshot(m Machine) verify.ScheduleCertificate {
	c.mu.Lock()
	defer c.mu.Unlock()
	cert := verify.ScheduleCertificate{
		GPUChannels: m.GPUChannels,
		PIMChannels: m.PIMChannels,
		Leases:      c.leases.Rows(),
		Requests:    c.requests.Rows(),
		Frontiers:   c.frontiers.Rows(),
		Policies:    maps.Clone(c.policies),
	}
	if len(c.leasePolicies) > 0 {
		cert.LeasePolicies = maps.Clone(c.leasePolicies)
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
