package serve

import (
	"math/rand"
	"sort"
	"testing"

	"pimflow/internal/num"
)

// Property: K requests whose channel demands all fit the machine
// simultaneously (pairwise-disjoint resource slices) overlap fully in
// virtual time, so their makespan equals the max — not the sum — of their
// solo latencies.
func TestSchedulerDisjointMakespanIsMax(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		k := 2 + rng.Intn(4)
		m := Machine{GPUChannels: 4 * k, PIMChannels: 4 * k}
		s := NewScheduler(m, nil)
		var leases []Lease
		var maxDur int64
		for i := 0; i < k; i++ {
			dur := int64(1 + rng.Intn(1_000_000))
			maxDur = num.Max64(maxDur, dur)
			l, err := s.Place(0, Demand{GPU: 1 + rng.Intn(4), PIM: 1 + rng.Intn(4)}, dur)
			if err != nil {
				t.Fatal(err)
			}
			leases = append(leases, l)
		}
		var makespan int64
		for _, l := range leases {
			if l.Start != 0 {
				t.Fatalf("trial %d: disjoint lease delayed to %d", trial, l.Start)
			}
			makespan = num.Max64(makespan, l.End)
		}
		if makespan != maxDur {
			t.Fatalf("trial %d: makespan %d, want max solo %d", trial, makespan, maxDur)
		}
	}
}

// Contending requests — demands that cannot share the machine — must
// serialize: each starts where the previous ended, and the makespan is
// the sum of the durations.
func TestSchedulerContentionSerializes(t *testing.T) {
	s := NewScheduler(Machine{GPUChannels: 8, PIMChannels: 8}, nil)
	durs := []int64{100, 250, 50}
	var prevEnd int64
	for _, d := range durs {
		l, err := s.Place(0, Demand{GPU: 8, PIM: 8}, d)
		if err != nil {
			t.Fatal(err)
		}
		if l.Start != prevEnd {
			t.Fatalf("lease started at %d, want %d", l.Start, prevEnd)
		}
		prevEnd = l.End
	}
	if want := int64(100 + 250 + 50); prevEnd != want {
		t.Fatalf("makespan %d, want %d", prevEnd, want)
	}
}

// A mixed scenario: two half-machine requests overlap, a full-machine
// request queues behind both, and a later half-machine request backfills
// after the full one.
func TestSchedulerMixedPlacement(t *testing.T) {
	s := NewScheduler(Machine{GPUChannels: 8, PIMChannels: 8}, nil)
	half := Demand{GPU: 4, PIM: 4}
	full := Demand{GPU: 8, PIM: 8}

	a, _ := s.Place(0, half, 100)
	b, _ := s.Place(0, half, 300)
	if a.Start != 0 || b.Start != 0 {
		t.Fatalf("half-machine leases should overlap: %+v %+v", a, b)
	}
	c, err := s.Place(0, full, 50)
	if err != nil {
		t.Fatal(err)
	}
	if c.Start != 300 {
		t.Fatalf("full-machine lease start %d, want 300 (after both halves)", c.Start)
	}
	d, err := s.Place(0, half, 40)
	if err != nil {
		t.Fatal(err)
	}
	// The half request fits alongside lease a's window only before c:
	// [0,300) has a half free until b ends... a ends at 100, b at 300, c
	// occupies [300,350). The earliest window with room for 40 cycles of
	// a half machine is [100, 300) — after a ended, alongside b.
	if d.Start != 100 {
		t.Fatalf("backfill start %d, want 100", d.Start)
	}
	if d.End > c.Start {
		t.Fatalf("backfill [%d,%d) overlaps full-machine lease at %d", d.Start, d.End, c.Start)
	}
}

// Release advances the virtual arrival frontier; Cancel does not.
func TestSchedulerFrontier(t *testing.T) {
	s := NewScheduler(DefaultMachine(), nil)
	l, _ := s.Place(0, Demand{GPU: 16, PIM: 16}, 1000)
	if got := s.Arrival(); got != 0 {
		t.Fatalf("arrival %d before any completion", got)
	}
	s.Release(l)
	if got := s.Arrival(); got != 1000 {
		t.Fatalf("arrival %d after release, want 1000", got)
	}
	l2, _ := s.Place(s.Arrival(), Demand{GPU: 16, PIM: 16}, 500)
	if l2.Start != 1000 {
		t.Fatalf("post-frontier lease start %d, want 1000", l2.Start)
	}
	s.Cancel(l2)
	if got := s.Arrival(); got != 1000 {
		t.Fatalf("arrival %d after cancel, want unchanged 1000", got)
	}
	if s.InFlight() != 0 {
		t.Fatalf("%d leases in flight after cancel", s.InFlight())
	}
}

// Randomized invariant check: at no virtual instant does the sum of
// overlapping leases' demands exceed the machine, for any interleaving of
// placements with varied arrivals.
func TestSchedulerNeverOvercommits(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := Machine{GPUChannels: 10, PIMChannels: 6}
	s := NewScheduler(m, nil)
	var leases []Lease
	for i := 0; i < 300; i++ {
		d := Demand{GPU: 1 + rng.Intn(m.GPUChannels), PIM: rng.Intn(m.PIMChannels + 1)}
		l, err := s.Place(int64(rng.Intn(5000)), d, int64(1+rng.Intn(2000)))
		if err != nil {
			t.Fatal(err)
		}
		leases = append(leases, l)
	}
	// Check capacity at every lease start (usage is piecewise constant and
	// only increases at starts).
	for _, probe := range leases {
		gpu, pim := 0, 0
		for _, l := range leases {
			if l.Start <= probe.Start && probe.Start < l.End {
				gpu += l.Demand.GPU
				pim += l.Demand.PIM
			}
		}
		if gpu > m.GPUChannels || pim > m.PIMChannels {
			t.Fatalf("overcommit at cycle %d: %d GPU / %d PIM in use", probe.Start, gpu, pim)
		}
	}
}

// A batch held open by a per-model window flushes with an arrival stamp
// older than work placed after it. If the newer placement's watermark
// already pruned completed leases, the stale placement must not open a
// window inside that forgotten busy history: it is clamped to the pruned
// horizon instead of silently oversubscribing the machine.
func TestSchedulerStaleArrivalSeesPrunedHistory(t *testing.T) {
	s := NewScheduler(Machine{GPUChannels: 16, PIMChannels: 16}, nil)
	a, err := s.Place(0, Demand{GPU: 8, PIM: 8}, 100) // [0, 100)
	if err != nil {
		t.Fatal(err)
	}
	s.Release(a)
	// A newer arrival advances the watermark past lease a, pruning it.
	b, err := s.Place(200, Demand{GPU: 8, PIM: 8}, 100)
	if err != nil {
		t.Fatal(err)
	}
	s.Release(b)
	if st := s.Stats(); st.Pruned == 0 {
		t.Fatal("lease a not pruned; the test no longer exercises the horizon")
	}
	// A stale full-machine arrival at 50 would overlap pruned lease a's
	// window [0, 100) — 24+24 channels on a 16+16 machine. It must be
	// clamped past the forgotten history.
	c, err := s.Place(50, Demand{GPU: 16, PIM: 16}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if c.Start < 100 {
		t.Fatalf("stale arrival placed at %d, inside pruned busy history [0, 100)", c.Start)
	}
}

// Property: capacity holds even when out-of-order arrivals interleave
// with releases, so pruning races ahead of stale placements. Every
// granted window is checked against every other granted window — the
// scheduler has forgotten some of them, but physics hasn't.
func TestSchedulerNeverOvercommitsWithReleases(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	m := Machine{GPUChannels: 10, PIMChannels: 6}
	s := NewScheduler(m, nil)
	var leases []Lease
	var open []Lease
	for i := 0; i < 300; i++ {
		d := Demand{GPU: 1 + rng.Intn(m.GPUChannels), PIM: rng.Intn(m.PIMChannels + 1)}
		l, err := s.Place(int64(rng.Intn(5000)), d, int64(1+rng.Intn(2000)))
		if err != nil {
			t.Fatal(err)
		}
		leases = append(leases, l)
		open = append(open, l)
		for len(open) > 0 && rng.Intn(2) == 0 {
			s.Release(open[0])
			open = open[1:]
		}
	}
	for _, probe := range leases {
		gpu, pim := 0, 0
		for _, l := range leases {
			if l.Start <= probe.Start && probe.Start < l.End {
				gpu += l.Demand.GPU
				pim += l.Demand.PIM
			}
		}
		if gpu > m.GPUChannels || pim > m.PIMChannels {
			t.Fatalf("overcommit at cycle %d: %d GPU / %d PIM in use", probe.Start, gpu, pim)
		}
	}
}

func TestSchedulerRejectsOversizedDemand(t *testing.T) {
	s := NewScheduler(Machine{GPUChannels: 4, PIMChannels: 4}, nil)
	if _, err := s.Place(0, Demand{GPU: 5, PIM: 0}, 10); err == nil {
		t.Fatal("demand beyond machine capacity must fail")
	}
}

// refScheduler is the candidate-scan placement the capacity step profile
// replaced, kept as the oracle for the differential test: the same lease
// bookkeeping (retention, watermark pruning, horizon clamp), but every
// placement sorts every lease boundary after the arrival and rescans
// every lease for each candidate window — O(L³), and obviously right.
type refScheduler struct {
	machine   Machine
	active    []leaseRec
	nextID    uint64
	watermark int64
	horizon   int64
	pruned    int64
}

func (s *refScheduler) place(arrival int64, d Demand, dur int64) Lease {
	if dur < 1 {
		dur = 1
	}
	s.watermark = num.Max64(s.watermark, arrival)
	s.prune()
	start := s.earliestFit(arrival, d, dur)
	s.nextID++
	l := Lease{id: s.nextID, Start: start, End: start + dur, Demand: d}
	s.active = append(s.active, leaseRec{Lease: l})
	return l
}

func (s *refScheduler) prune() {
	kept := s.active[:0]
	for _, r := range s.active {
		if r.released && r.End <= s.watermark {
			s.pruned++
			s.horizon = num.Max64(s.horizon, r.End)
			continue
		}
		kept = append(kept, r)
	}
	s.active = kept
}

func (s *refScheduler) release(l Lease) {
	for i := range s.active {
		if s.active[i].id == l.id {
			s.active[i].released = true
			break
		}
	}
	s.prune()
}

func (s *refScheduler) cancel(l Lease) {
	for i := range s.active {
		if s.active[i].id == l.id {
			s.active = append(s.active[:i], s.active[i+1:]...)
			break
		}
	}
}

// earliestFit tries the arrival stamp (clamped to the horizon) and every
// later lease boundary in order, returning the first whose whole window
// keeps both channel groups within capacity.
func (s *refScheduler) earliestFit(arrival int64, d Demand, dur int64) int64 {
	arrival = num.Max64(arrival, s.horizon)
	cands := []int64{arrival}
	for i := range s.active {
		l := &s.active[i]
		if l.End > arrival {
			cands = append(cands, l.End)
		}
		if l.Start > arrival {
			cands = append(cands, l.Start)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	for _, t := range cands {
		if s.windowFits(t, t+dur, d) {
			return t
		}
	}
	panic("refScheduler: no candidate fits past the last lease end")
}

// windowFits checks capacity at every usage step inside [t0, t1): usage
// only rises at lease starts, so evaluating t0 and each covered lease
// start is exact.
func (s *refScheduler) windowFits(t0, t1 int64, d Demand) bool {
	points := []int64{t0}
	for i := range s.active {
		if l := &s.active[i]; l.Start > t0 && l.Start < t1 {
			points = append(points, l.Start)
		}
	}
	for _, p := range points {
		gpu, pim := d.GPU, d.PIM
		for i := range s.active {
			if l := &s.active[i]; l.Start <= p && p < l.End {
				gpu += l.Demand.GPU
				pim += l.Demand.PIM
			}
		}
		if gpu > s.machine.GPUChannels || pim > s.machine.PIMChannels {
			return false
		}
	}
	return true
}

// Differential property: the step-profile sweep places every lease at
// exactly the start the candidate scan picks, through seeded random
// interleavings of Place, Release and Cancel — including stale arrivals
// older than the watermark, so pruning and the horizon clamp both run —
// and the two agree on the pruning and in-flight counts throughout.
func TestSchedulerMatchesCandidateScan(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := Machine{GPUChannels: 4 + rng.Intn(13), PIMChannels: rng.Intn(17)}
		s := NewScheduler(m, nil)
		ref := &refScheduler{machine: m}
		var live, retained []Lease
		var arrival int64
		pick := func(ls []Lease) (Lease, []Lease) {
			i := rng.Intn(len(ls))
			l := ls[i]
			return l, append(ls[:i], ls[i+1:]...)
		}
		for op := 0; op < 1000; op++ {
			switch r := rng.Intn(20); {
			case r < 10 || len(live) == 0:
				arrival += int64(rng.Intn(400))
				at := arrival
				if rng.Intn(4) == 0 {
					at -= int64(rng.Intn(3000)) // a stale batch flushed late
				}
				d := Demand{GPU: rng.Intn(m.GPUChannels + 1), PIM: rng.Intn(m.PIMChannels + 1)}
				dur := int64(rng.Intn(1500))
				want := ref.place(at, d, dur)
				got, err := s.Place(at, d, dur)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("seed %d op %d: Place(%d, %+v, %d) = [%d,%d), candidate scan [%d,%d)",
						seed, op, at, d, dur, got.Start, got.End, want.Start, want.End)
				}
				live = append(live, got)
			case r < 17:
				var l Lease
				l, live = pick(live)
				ref.release(l)
				s.Release(l)
				retained = append(retained, l)
			case r < 19 || len(retained) == 0:
				var l Lease
				l, live = pick(live)
				ref.cancel(l)
				s.Cancel(l)
			default:
				// Cancel after Release: the retained window is dropped.
				var l Lease
				l, retained = pick(retained)
				ref.cancel(l)
				s.Cancel(l)
			}
			st := s.Stats()
			if st.Pruned != ref.pruned || st.InFlight != len(live) || st.InFlight+st.Retained != len(ref.active) {
				t.Fatalf("seed %d op %d: stats %+v, candidate scan pruned %d, %d live of %d active",
					seed, op, st, ref.pruned, len(live), len(ref.active))
			}
		}
	}
}

// deepQueue drives a scheduler the way an overloaded server does: depth
// unreleased leases queue ahead of the completion frontier, each step
// releases the oldest and places a new one, and arrivals come in bursts
// of eight that share the frontier stamp.
type deepQueue struct {
	s       *Scheduler
	ring    []Lease
	next    int
	n       int
	arrival int64
}

func newDeepQueue(depth int) *deepQueue {
	q := &deepQueue{s: NewScheduler(DefaultMachine(), nil), ring: make([]Lease, depth)}
	for i := range q.ring {
		q.ring[i] = q.place()
	}
	return q
}

func (q *deepQueue) place() Lease {
	if q.n%8 == 0 {
		q.arrival = q.s.Arrival()
	}
	d := Demand{GPU: 8, PIM: 8}
	if q.n%5 == 0 {
		d = Demand{GPU: 16, PIM: 16}
	}
	dur := int64(500 + q.n*7919%1000)
	q.n++
	l, _ := q.s.Place(q.arrival, d, dur)
	return l
}

func (q *deepQueue) step() {
	q.s.Release(q.ring[q.next])
	q.ring[q.next] = q.place()
	q.next = (q.next + 1) % len(q.ring)
}

// Steady-state placement on a deep queue allocates nothing: the profile
// and the lease list are edited in place within their capacity.
func TestSchedulerPlaceDoesNotAllocate(t *testing.T) {
	q := newDeepQueue(64)
	for i := 0; i < 1000; i++ {
		q.step()
	}
	if st := q.s.Stats(); st.InFlight != 64 || st.Pruned == 0 {
		t.Fatalf("stats %+v: want 64 leases in flight and some pruned", st)
	}
	if a := testing.AllocsPerRun(1000, q.step); a != 0 {
		t.Fatalf("Place+Release allocates %.1f times per step, want 0", a)
	}
}
