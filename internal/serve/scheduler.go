// The scheduler models the machine's timeline purely in simulated
// cycles; host-clock reads here would couple placement to wall time.
//
//pimflow:virtual-time

package serve

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"pimflow/internal/obs"
)

// Machine describes the lease-able resources of the simulated system: the
// GPU-visible memory-channel group and the PIM-enabled channel group. The
// paper's machine is 32 GDDR6 channels, 16 of them PIM-enabled, so the
// default is 16+16. Models compiled against a smaller resource slice
// (search.Options.WithResources) demand fewer channels and can run
// concurrently with each other.
type Machine struct {
	GPUChannels int `json:"gpuChannels"`
	PIMChannels int `json:"pimChannels"`
}

// DefaultMachine returns the paper's 16+16 channel machine.
func DefaultMachine() Machine { return Machine{GPUChannels: 16, PIMChannels: 16} }

// Validate checks the machine description.
func (m Machine) Validate() error {
	if m.GPUChannels < 1 || m.PIMChannels < 0 {
		return fmt.Errorf("serve: invalid machine %+v", m)
	}
	return nil
}

// Demand is the channel-group footprint one request leases for its
// execution window.
type Demand struct {
	GPU int `json:"gpu"`
	PIM int `json:"pim"`
}

// Lease is one granted reservation of channel groups over a virtual-time
// window [Start, End).
type Lease struct {
	id     uint64
	Start  int64
	End    int64
	Demand Demand
}

// step is one breakpoint of the scheduler's capacity profile: the channel
// usage of every profiled lease on [t, next.t). Usage after the last
// breakpoint is zero.
type step struct {
	t   int64
	gpu int
	pim int
}

// Scheduler multiplexes requests over the machine's channel groups in
// virtual time. Placement is earliest-fit: a request starts at its virtual
// arrival stamp when its channel demand fits alongside every overlapping
// reservation, and otherwise at the first lease boundary where it does —
// so requests with disjoint channel groups overlap and contending
// requests queue. The scheduler only does bookkeeping; the server
// charges each lease its model's solo schedule at the placed offset.
//
// Arrival stamps need not be nondecreasing across Place calls: per-model
// batch windows flush batches out of arrival order, so a held batch can
// arrive with a stamp older than already-placed work. Completed leases
// are pruned once the arrival watermark passes them; a stale arrival
// whose window would fall inside that forgotten history is clamped to
// the pruned horizon (slightly conservative, never oversubscribed).
type Scheduler struct {
	mu      sync.Mutex
	machine Machine
	// active holds the unreleased leases. retained[gone:] holds the
	// released leases not yet pruned, in ascending End order: they still
	// block their historical windows, because a request can arrive
	// earlier than already-completed work (a pinned arrival, or a live
	// request admitted before that work was served), and its placement
	// must still see the busy windows of that work.
	// retained[:gone] are pruned leases not yet moved out (pruneLocked).
	active   []Lease // guarded by mu
	retained []Lease // guarded by mu
	gone     int     // guarded by mu
	// profile is the channel usage of the active leases as a step
	// function, with breakpoints sorted by t at lease boundaries. Place
	// adds a lease's demand over its window and Cancel subtracts it (its
	// breakpoints stay, carrying the usage of the step before them);
	// pruning drops the steps that end at or before the horizon, in bulk.
	// Usage is exact from the horizon on; earlier steps may still count
	// pruned leases, but no placement looks there.
	profile []step // guarded by mu
	nextID  uint64 // guarded by mu
	// vfront is the completion frontier: the max end of released leases.
	// It stamps the virtual arrival of subsequent requests.
	vfront int64 // guarded by mu
	// watermark is the max arrival stamp seen; released leases ending at
	// or before it are pruned.
	watermark int64 // guarded by mu
	// horizon is the max end among pruned leases: the machine's busy
	// history before it has been forgotten, so no new window may open
	// there. Placements whose arrival predates the horizon (per-model
	// batch windows flush batches out of arrival order) are clamped to
	// it — slightly conservative, never oversubscribed.
	horizon int64 // guarded by mu
	placed  int64 // guarded by mu
	pruned  int64 // guarded by mu
	// Gauges of live leases and of the frontier, set under mu.
	leasesActive, frontier *obs.Gauge
	// onRelease, when set, observes every Release (lease id + the frontier
	// it advanced to). It is invoked under mu, so observations arrive in
	// release order with monotone frontier stamps — the SR-FRONTIER
	// invariant the schedule certificate records through this hook. Set
	// once at construction time, before the scheduler is shared.
	onRelease func(leaseID uint64, frontier int64)
}

// NewScheduler returns an empty scheduler over the machine.
func NewScheduler(m Machine, metrics *obs.Metrics) *Scheduler {
	return &Scheduler{
		machine:      m,
		leasesActive: metrics.GaugeOf("serve.leases_active"),
		frontier:     metrics.GaugeOf("serve.virtual_frontier_cycles"),
	}
}

// Machine returns the scheduled machine description.
func (s *Scheduler) Machine() Machine { return s.machine }

// Fits reports whether a demand fits the machine at all (an admission
// precondition the registry checks at load time).
func (s *Scheduler) Fits(d Demand) bool {
	return d.GPU >= 0 && d.PIM >= 0 &&
		d.GPU <= s.machine.GPUChannels && d.PIM <= s.machine.PIMChannels
}

// Arrival returns the current virtual arrival stamp: the completion
// frontier of already-finished work.
func (s *Scheduler) Arrival() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.vfront
}

// InFlight returns the number of live (unreleased) leases.
func (s *Scheduler) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.active)
}

// SchedulerStats is a read-only snapshot of the scheduler's bookkeeping.
type SchedulerStats struct {
	// InFlight is the number of unreleased leases; Retained counts
	// released leases kept as placement history for pinned arrivals.
	InFlight int `json:"inFlight"`
	Retained int `json:"retained"`
	// FrontierCycles is the completion frontier; WatermarkCycles the max
	// arrival stamp seen.
	FrontierCycles  int64 `json:"frontierCycles"`
	WatermarkCycles int64 `json:"watermarkCycles"`
	// Placed and Pruned count leases over the scheduler's lifetime.
	Placed int64 `json:"placed"`
	Pruned int64 `json:"pruned"`
}

// Stats returns a snapshot of the scheduler's counters.
func (s *Scheduler) Stats() SchedulerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SchedulerStats{
		InFlight:        len(s.active),
		Retained:        len(s.retained) - s.gone,
		FrontierCycles:  s.vfront,
		WatermarkCycles: s.watermark,
		Placed:          s.placed,
		Pruned:          s.pruned,
	}
}

// Place reserves the earliest window of length dur starting at or after
// the arrival stamp where demand fits alongside every overlapping lease
// (including retained completed leases — history an early pinned arrival
// must still queue behind).
func (s *Scheduler) Place(arrival int64, d Demand, dur int64) (Lease, error) {
	if !s.Fits(d) {
		return Lease{}, fmt.Errorf("serve: demand %+v exceeds machine %+v", d, s.machine)
	}
	if dur < 1 {
		dur = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.watermark = max(s.watermark, arrival)
	s.pruneLocked()
	start := s.earliestFitLocked(arrival, d, dur)
	s.nextID++
	s.placed++
	l := Lease{id: s.nextID, Start: start, End: start + dur, Demand: d}
	s.active = append(s.active, l)
	s.addUsageLocked(l.Start, l.End, d.GPU, d.PIM)
	s.leasesActive.Set(float64(len(s.active)))
	return l, nil
}

// pruneLocked drops released leases ending at or before the arrival
// watermark and advances the horizon past their windows: a later
// placement with an older arrival (batch windows flush out of arrival
// order) can no longer be told how busy that history was, so
// earliestFitLocked refuses to open a window before the horizon. The
// retained leases are in end order, so the pruned ones are a prefix and
// the scan stops at the first lease that stays. The pruned leases all
// end at or before the horizon, so the profile needs no subtraction —
// only the steps wholly before the horizon are dropped.
//
// Dropping moves nothing until the dropped prefix of a slice is as long
// as the rest; then the rest moves down to the front. So each lease and
// step moves once on average, and the slices keep their capacity:
// steady-state placement does not allocate.
func (s *Scheduler) pruneLocked() {
	n := s.gone
	for n < len(s.retained) && s.retained[n].End <= s.watermark {
		n++
	}
	if n == s.gone {
		return
	}
	s.pruned += int64(n - s.gone)
	s.horizon = max(s.horizon, s.retained[n-1].End)
	s.gone = n
	if n >= len(s.retained)-n {
		s.retained = s.retained[:copy(s.retained, s.retained[n:])]
		s.gone = 0
	}
	// Keep the step containing the horizon; no placement reads the steps
	// before it, so they may wait.
	if i := s.stepAtLocked(s.horizon); i >= len(s.profile)-i {
		s.profile = s.profile[:copy(s.profile, s.profile[i:])]
	}
}

// stepAtLocked returns the index of the step containing t: the last
// breakpoint at or before t, or 0 when t precedes every breakpoint.
func (s *Scheduler) stepAtLocked(t int64) int {
	i := sort.Search(len(s.profile), func(k int) bool { return s.profile[k].t > t })
	return max(i-1, 0)
}

// splitLocked makes t a breakpoint of the profile, carrying over the
// usage of the step it splits, and returns its index.
func (s *Scheduler) splitLocked(t int64) int {
	i := s.stepAtLocked(t)
	if i < len(s.profile) && s.profile[i].t == t {
		return i
	}
	var st step
	if i < len(s.profile) && s.profile[i].t < t {
		st = s.profile[i]
		i++
	}
	st.t = t
	s.profile = slices.Insert(s.profile, i, st)
	return i
}

// addUsageLocked adds (gpu, pim) channels to the profile over
// [start, end). A Cancel may reach back before the horizon, where the
// steps are already dropped or inexact; what it writes there is never
// read and goes when the horizon next advances.
func (s *Scheduler) addUsageLocked(start, end int64, gpu, pim int) {
	i := s.splitLocked(start)
	j := s.splitLocked(end)
	for k := i; k < j; k++ {
		s.profile[k].gpu += gpu
		s.profile[k].pim += pim
	}
}

// earliestFitLocked sweeps the profile once from the arrival stamp: the
// candidate start moves to the next breakpoint whenever a step inside
// its window is over capacity, and the first candidate whose window
// clears every step is returned. Any start before a violating step has
// that step inside its window, so the result equals checking every
// lease boundary after the arrival in order. Arrivals that predate the
// pruned horizon are clamped to it: the busy history before the horizon
// has been forgotten, so opening a window there could oversubscribe the
// machine against leases this scheduler already granted. The last step
// has zero usage and Fits was checked, so the sweep always ends there
// at the latest.
func (s *Scheduler) earliestFitLocked(arrival int64, d Demand, dur int64) int64 {
	cand := max(arrival, s.horizon)
	gpuCap, pimCap := s.machine.GPUChannels-d.GPU, s.machine.PIMChannels-d.PIM
	for i := s.stepAtLocked(cand); i < len(s.profile); i++ {
		st := &s.profile[i]
		if st.t >= cand+dur {
			break
		}
		if st.gpu > gpuCap || st.pim > pimCap {
			cand = s.profile[i+1].t
		}
	}
	return cand
}

// Release retires a lease, advancing the completion frontier to its end.
// The lease keeps blocking its historical window for later pinned-arrival
// placements until the arrival watermark passes it.
func (s *Scheduler) Release(l Lease) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := takeLease(&s.active, 0, l.id); ok {
		// Leases mostly release in end order, so the scan from the back
		// stops at or near the end.
		i := len(s.retained)
		for i > s.gone && s.retained[i-1].End > r.End {
			i--
		}
		s.retained = slices.Insert(s.retained, i, r)
	}
	s.vfront = max(s.vfront, l.End)
	if s.onRelease != nil {
		s.onRelease(l.id, s.vfront)
	}
	s.pruneLocked()
	s.leasesActive.Set(float64(len(s.active)))
	s.frontier.Set(float64(s.vfront))
}

// Cancel retires a lease without advancing the frontier or retaining its
// window (a placement that was abandoned, e.g. a virtual-deadline
// violation, never occupied the machine). A released lease that is still
// retained is dropped from the history too.
func (s *Scheduler) Cancel(l Lease) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := takeLease(&s.active, 0, l.id)
	if !ok {
		r, ok = takeLease(&s.retained, s.gone, l.id)
	}
	if ok {
		s.addUsageLocked(r.Start, r.End, -r.Demand.GPU, -r.Demand.PIM)
	}
	s.leasesActive.Set(float64(len(s.active)))
}

// takeLease removes the lease with the id from (*ls)[from:], keeping the
// order of the rest, and returns it.
func takeLease(ls *[]Lease, from int, id uint64) (Lease, bool) {
	for i := from; i < len(*ls); i++ {
		if l := (*ls)[i]; l.id == id {
			*ls = slices.Delete(*ls, i, i+1)
			return l, true
		}
	}
	return Lease{}, false
}
