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
// so recording never moves a row; a view copies only the page headers.
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

// batch records one served batch: the lease that held the machine, the
// policy the batch was formed under and every member's reported
// timeline. Called by process before the lease is released, so the
// frontier record never precedes its lease record.
func (c *certRecorder) batch(l Lease, lm *LoadedModel, live bool, resps []InferResponse) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.leases.Append(verify.ScheduleLease{
		ID: l.id, Model: lm.Spec.Name, Start: l.Start, End: l.End,
		GPU: l.Demand.GPU, PIM: l.Demand.PIM, Batch: len(resps),
	})
	// A name's first policy goes to the model table; a lease batched
	// under another one (the name was reloaded, or a live batch beside
	// replayed ones) is listed by its ID. The live dispatcher holds wall
	// windows only, so a live batch records no virtual window: its
	// members carry whatever stamps they were admitted with, pinned graph
	// hops beside frontier-stamped requests.
	pol := verify.SchedulePolicy{MaxBatch: lm.Batch.MaxBatch}
	if !live {
		pol.WindowCycles = lm.Batch.WindowCycles
	}
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

// view views the accumulated certificate: under the lock it copies the
// logs' page headers and the policy tables, and no row.
func (c *certRecorder) view(m Machine) verify.ScheduleView {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := verify.ScheduleView{GPUChannels: m.GPUChannels, PIMChannels: m.PIMChannels, Policies: maps.Clone(c.policies),
		Leases: c.leases.View(), Requests: c.requests.View(), Frontiers: c.frontiers.View()}
	if len(c.leasePolicies) > 0 {
		v.LeasePolicies = maps.Clone(c.leasePolicies)
	}
	return v
}

// Certifying reports whether the server is recording a schedule
// certificate (Config.Certify).
func (s *Server) Certifying() bool { return s.cert != nil }

// Certificate copies the certificate recorded so far out of the logs.
// Without Config.Certify it is empty (and trivially valid): check
// Certifying when emptiness must mean "nothing served".
func (s *Server) Certificate() verify.ScheduleCertificate { return s.CertificateView().Certificate() }

// CertificateView views the schedule certificate recorded so far in
// place: its Check method reads every row where the recorder put it.
func (s *Server) CertificateView() verify.ScheduleView {
	if s.cert == nil {
		return verify.ScheduleView{GPUChannels: s.cfg.Machine.GPUChannels, PIMChannels: s.cfg.Machine.PIMChannels}
	}
	return s.cert.view(s.cfg.Machine)
}
