// Tier C — the schedule certificate. The serving stack's static story
// (Tiers A and B) ends where concurrency begins: the scheduler's lease
// placement, the batcher's window discipline, and the per-request stage
// attribution are runtime behavior no graph or trace check can see. When
// serve.Config.Certify is on, the server records every successful lease,
// its member requests, and the completion-frontier stamp of every
// release into a ScheduleCertificate, and Schedule replays the SR-* rule
// family over it: channel-group capacity is never oversubscribed, the
// completion frontier only advances, batches respect their model's
// BatchPolicy, and every request's stage split sums exactly. The
// certificate is pure data, so a forged one (tests inject overlapping
// leases and rewound frontiers) is rejected with the same rule IDs a
// real scheduler bug would produce.

package verify

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Schedule-certificate rule IDs (Tier C).
const (
	RuleSchedDemand    = "SR-DEMAND"    // malformed lease: bad window, duplicate ID, demand outside the machine
	RuleSchedOverlap   = "SR-OVERLAP"   // concurrent leases oversubscribe a channel group
	RuleSchedFrontier  = "SR-FRONTIER"  // completion frontier rewound or released lease unknown/uncovered
	RuleSchedLease     = "SR-LEASE"     // request outside its lease, or bound to an unknown/foreign lease
	RuleSchedWindow    = "SR-WINDOW"    // batch exceeds MaxBatch or spreads arrivals past WindowCycles
	RuleSchedPartition = "SR-PARTITION" // stage split does not partition the request's latency exactly
)

// ScheduleLease is one granted reservation in the certificate: the
// virtual window [Start, End), the channel-group demand it held, and the
// size of the request batch it served.
type ScheduleLease struct {
	ID    uint64 `json:"id"`
	Model string `json:"model"`
	Start int64  `json:"start"`
	End   int64  `json:"end"`
	GPU   int    `json:"gpu"`
	PIM   int    `json:"pim"`
	Batch int    `json:"batch"`
}

// ScheduleRequest is one served request's timeline as the server
// reported it: arrival, batch formation, lease execution, and the stage
// split that must partition the end-to-end latency exactly.
type ScheduleRequest struct {
	ID           string `json:"id,omitempty"`
	Model        string `json:"model"`
	LeaseID      uint64 `json:"leaseId"`
	Arrival      int64  `json:"arrival"`
	BatchArrival int64  `json:"batchArrival"`
	Start        int64  `json:"start"`
	End          int64  `json:"end"`
	BatchWait    int64  `json:"batchWait"`
	LeaseWait    int64  `json:"leaseWait"`
	Execute      int64  `json:"execute"`
	Latency      int64  `json:"latency"`
}

// ScheduleFrontier is one completion-frontier stamp, recorded (in
// release order) when the scheduler retired the lease.
type ScheduleFrontier struct {
	LeaseID  uint64 `json:"leaseId"`
	Frontier int64  `json:"frontier"`
}

// SchedulePolicy is the resolved batching policy of one model, the
// bound SR-WINDOW checks batches against.
type SchedulePolicy struct {
	MaxBatch     int   `json:"maxBatch"`
	WindowCycles int64 `json:"windowCycles"`
}

// ScheduleCertificate is the serving stack's self-reported schedule:
// the machine's channel groups, every successful lease with its member
// requests, the frontier stamp of every release, and the batching
// policies: each model's first one, and by lease ID the policy of every
// lease batched under another (its name was reloaded with a different
// one). Canceled placements (deadline violations, execution failures)
// never occupied the machine and do not appear.
type ScheduleCertificate struct {
	GPUChannels   int                       `json:"gpuChannels"`
	PIMChannels   int                       `json:"pimChannels"`
	Leases        []ScheduleLease           `json:"leases"`
	Requests      []ScheduleRequest         `json:"requests"`
	Frontiers     []ScheduleFrontier        `json:"frontiers"`
	Policies      map[string]SchedulePolicy `json:"policies,omitempty"`
	LeasePolicies map[uint64]SchedulePolicy `json:"leasePolicies,omitempty"`
}

// Rows is a read-only view of one certificate table: its rows in order,
// in pages. An exported slice is one page; a recorder's log is viewed in
// place through copies of its page headers. The checks walk the pages in
// plain loops and never divide a position.
type Rows[T any] struct{ pages [][]T }

// RowsOf views the rows of pages in order, sharing them.
func RowsOf[T any](pages ...[]T) Rows[T] { return Rows[T]{pages} }

// Len returns the number of rows.
func (r Rows[T]) Len() (n int) {
	for _, p := range r.pages {
		n += len(p)
	}
	return n
}

// Copy returns the rows as an exact-length copy, nil when there is none.
func (r Rows[T]) Copy() []T { return slices.Clip(slices.Concat(r.pages...)) }

// ScheduleView is a schedule certificate as the SR-* checks read it,
// each table a row view.
type ScheduleView struct {
	GPUChannels, PIMChannels int
	Leases                   Rows[ScheduleLease]
	Requests                 Rows[ScheduleRequest]
	Frontiers                Rows[ScheduleFrontier]
	Policies                 map[string]SchedulePolicy
	LeasePolicies            map[uint64]SchedulePolicy
}

// View views c's tables in place, each as one page.
func (c ScheduleCertificate) View() ScheduleView {
	return ScheduleView{c.GPUChannels, c.PIMChannels, RowsOf(c.Leases), RowsOf(c.Requests), RowsOf(c.Frontiers),
		c.Policies, c.LeasePolicies}
}

// Certificate copies the viewed rows out; the policy tables are the view's.
func (v ScheduleView) Certificate() ScheduleCertificate {
	return ScheduleCertificate{v.GPUChannels, v.PIMChannels, v.Leases.Copy(), v.Requests.Copy(), v.Frontiers.Copy(),
		v.Policies, v.LeasePolicies}
}

// schedDiag builds a schedule-tier diagnostic (model name rides in the
// Node field; lease and request identity go into the message).
func schedDiag(rule, model, msg string) Diagnostic {
	return Diagnostic{Rule: rule, Node: model, Channel: -1, Index: -1, Msg: msg}
}

// Schedule checks a certificate against the SR-* rules and returns every
// violation. An empty certificate is trivially valid.
func Schedule(c ScheduleCertificate) []Diagnostic { return c.View().Check() }

// Check is Schedule on a view. Every check but SR-OVERLAP's sweep is a
// linear walk plus two tables indexed by lease: the sorted lease-ID index
// and the members' count and arrival span per lease. A request or lease
// label is formatted only when a rule fires, so a clean certificate
// costs a constant number of allocations at any size.
func (c ScheduleView) Check() []Diagnostic {
	var diags []Diagnostic
	idx := indexLeases(c.Leases)
	at := 0
	for p, page := range c.Leases.pages {
		for j := range page {
			l := &page[j]
			if idx[idx.find(l.ID, &at)].at != uint64(p)<<32|uint64(j) {
				diags = append(diags, schedDiag(RuleSchedDemand, l.Model,
					fmt.Sprintf("duplicate lease id %d", l.ID)))
				continue
			}
			if l.Start >= l.End {
				diags = append(diags, schedDiag(RuleSchedDemand, l.Model,
					fmt.Sprintf("lease %d window [%d, %d) is empty or inverted", l.ID, l.Start, l.End)))
			}
			if l.GPU < 0 || l.PIM < 0 || l.GPU > c.GPUChannels || l.PIM > c.PIMChannels {
				diags = append(diags, schedDiag(RuleSchedDemand, l.Model,
					fmt.Sprintf("lease %d demands %d GPU + %d PIM channels, machine has %d + %d",
						l.ID, l.GPU, l.PIM, c.GPUChannels, c.PIMChannels)))
			}
			if l.Batch < 1 {
				diags = append(diags, schedDiag(RuleSchedDemand, l.Model,
					fmt.Sprintf("lease %d served an empty batch", l.ID)))
			}
		}
	}
	// SR-OVERLAP's sweep and the frontier log are one task on the worker
	// pool; the request and window sweeps are the other, since
	// checkWindows reads the member spans checkRequests fills.
	for _, part := range runTasks(2, func(i int) []Diagnostic {
		if i == 0 {
			return append(checkOverlap(&c), checkFrontier(&c, idx)...)
		}
		members := make([]memberSpan, len(idx))
		d := checkRequests(&c, idx, members)
		return append(d, checkWindows(&c, idx, members)...)
	}) {
		diags = append(diags, part...)
	}
	return diags
}

// leaseIndex resolves lease IDs to lease rows: one (ID, place) pair per
// recorded lease, sorted by ID then place, so a binary search lands on
// the first lease recorded with an ID. A place, the row's page<<32 | its
// index in the page, resolves with a shift and rises in recording order,
// as scheduler IDs do, so the index is built sorted unless an ID steps
// back. The per-lease tables are indexed by an ID's first slot.
type leaseIndex []leaseRef

type leaseRef struct{ id, at uint64 }

func indexLeases(ls Rows[ScheduleLease]) leaseIndex {
	idx, sorted := make(leaseIndex, 0, ls.Len()), true
	for p, page := range ls.pages {
		for j := range page {
			sorted = sorted && (len(idx) == 0 || idx[len(idx)-1].id <= page[j].ID)
			idx = append(idx, leaseRef{page[j].ID, uint64(p)<<32 | uint64(j)})
		}
	}
	if !sorted {
		slices.SortFunc(idx, func(a, b leaseRef) int { return cmp.Or(cmp.Compare(a.id, b.id), cmp.Compare(a.at, b.at)) })
	}
	return idx
}

// find returns the slot of the first lease recorded with the ID (later
// ones are SR-DEMAND duplicates), or -1 when none is. *at is the slot
// of the walk's previous find: a walk in recording order looks up the
// same lease or the next one, so those two slots are tried before a
// binary search. Every slot find stores is the first of its ID (slot 0,
// a binary search's lower bound, or the slot after a different ID), so
// a hit on either is the first lease with the ID too.
func (x leaseIndex) find(id uint64, at *int) int {
	i := *at
	if i < len(x) && x[i].id != id {
		i++
	}
	if i >= len(x) || x[i].id != id {
		var ok bool
		i, ok = slices.BinarySearchFunc(x, id, func(r leaseRef, id uint64) int { return cmp.Compare(r.id, id) })
		if !ok {
			return -1
		}
	}
	*at = i
	return i
}

// recent answers a per-row lookup from the last four keys it missed on,
// so rows that cycle among a few names (a certificate's models, machines
// and graph nodes) compare keys instead of hashing one per row.
type recent[K comparable, V any] struct {
	keys [4]K
	vals [4]V
	n    int
	miss func(K) V
}

func (r *recent[K, V]) get(k K) V {
	for i := range min(r.n, 4) {
		if r.keys[i] == k {
			return r.vals[i]
		}
	}
	v := r.miss(k)
	r.keys[r.n%4], r.vals[r.n%4], r.n = k, v, r.n+1
	return v
}

// memberSpan is what SR-WINDOW needs of one lease's member requests:
// how many there are and the range of their arrival stamps.
type memberSpan struct {
	n      int
	lo, hi int64
}

func (m *memberSpan) add(arrival int64) {
	if m.n == 0 || arrival < m.lo {
		m.lo = arrival
	}
	if m.n == 0 || arrival > m.hi {
		m.hi = arrival
	}
	m.n++
}

// checkOverlap sweeps the lease windows in virtual time and verifies
// both channel groups stay within capacity at every instant. Usage
// changes only at lease boundaries, applied in one total order
// (event.cmp). Leases are recorded almost in start order, so grants come
// from recording order, bar the leases that start below an earlier one
// (back-steps): those go to a side list sorted on its own. Releases come
// from a min-heap of the active leases' ends. With d back-steps and k
// leases active at once, n leases cost O(n + d log d + n log k).
func checkOverlap(c *ScheduleView) []Diagnostic {
	pages := c.Leases.pages
	var top int64 // the latest start granted in recording order
	backSteps := func(visit func(l *ScheduleLease)) {
		top = math.MinInt64
		for _, page := range pages {
			for j := range page {
				if l := &page[j]; l.Start < l.End && l.Start < top { // an empty window is an SR-DEMAND finding
					visit(l)
				} else if l.Start < l.End {
					top = l.Start
				}
			}
		}
	}
	d := 0
	backSteps(func(*ScheduleLease) { d++ })
	buf := make([]event, 0, d+80) // one allocation: the side list, the heap, one instant's events
	side, ends, group := buf[:0:d], eventHeap(buf[d:d:d+64]), buf[d+64:d+64]
	backSteps(func(l *ScheduleLease) { side = append(side, event{l.Start, l.End, l.GPU, l.PIM}) })
	slices.SortFunc(side, event.cmp)
	top = math.MinInt64
	p, j := 0, 0
	next := func() *ScheduleLease { // the next lease recording order grants, nil after the last
		for ; p < len(pages); p, j = p+1, 0 {
			for j < len(pages[p]) {
				l := &pages[p][j]
				if j++; l.Start < l.End && l.Start >= top {
					return l
				}
			}
		}
		return nil
	}
	gpu, pim := 0, 0
	for l, s := next(), 0; l != nil || s < len(side) || len(ends) > 0; {
		t := int64(math.MaxInt64)
		if l != nil {
			t = l.Start
		}
		if s < len(side) {
			t = min(t, side[s].at)
		}
		if len(ends) > 0 {
			t = min(t, ends[0].at)
		}
		for group = group[:0]; len(ends) > 0 && ends[0].at == t; {
			group = append(group, ends.pop())
		}
		for ; l != nil && l.Start == t; l = next() {
			group, top = append(group, event{t, l.End, l.GPU, l.PIM}), t
		}
		for ; s < len(side) && side[s].at == t; s++ {
			group = append(group, side[s])
		}
		if len(group) > 1 {
			slices.SortFunc(group, event.cmp)
		}
		for _, e := range group {
			if e.end > t { // a grant: its release joins the heap
				ends.push(event{e.end, e.end, -e.gpu, -e.pim})
			}
			gpu += e.gpu
			pim += e.pim
			if gpu > c.GPUChannels || pim > c.PIMChannels { // later sums are corrupted; one finding suffices
				return []Diagnostic{schedDiag(RuleSchedOverlap, "",
					fmt.Sprintf("overlapping leases hold %d GPU + %d PIM channels at cycle %d, machine has %d + %d",
						gpu, pim, t, c.GPUChannels, c.PIMChannels))}
			}
		}
	}
	return nil
}

// event is a lease boundary: a grant at the lease's start carrying its
// end, or a release at its end (end == at) giving the demand back.
type event struct {
	at, end  int64
	gpu, pim int
}

// cmp orders events by cycle, then demand sum, so releases precede grants
// at an instant (windows are half-open), then GPU demand, so events with
// equal keys move the sums alike and a breach never rests on a sort's
// tie order.
func (a event) cmp(b event) int {
	return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.gpu+a.pim, b.gpu+b.pim), cmp.Compare(a.gpu, b.gpu))
}

// eventHeap is a min-heap of release events by cycle.
type eventHeap []event

func (h *eventHeap) push(e event) {
	s := append(*h, e)
	for i := len(s) - 1; i > 0 && s[i].at < s[(i-1)/2].at; i = (i - 1) / 2 {
		s[i], s[(i-1)/2] = s[(i-1)/2], s[i]
	}
	*h = s
}

func (h *eventHeap) pop() event {
	s, n := *h, len(*h)-1
	top := s[0]
	s[0], *h = s[n], s[:n]
	for i, c := 0, 1; c < n; i, c = c, 2*c+1 {
		if c+1 < n && s[c+1].at < s[c].at {
			c++
		}
		if s[i].at <= s[c].at {
			break
		}
		s[i], s[c] = s[c], s[i]
	}
	return top
}

// checkFrontier verifies the release log: stamps are recorded in release
// order, so they must be nondecreasing, each must name a recorded lease,
// and each must cover the released lease's end (the frontier is the max
// completion seen so far).
func checkFrontier(c *ScheduleView, idx leaseIndex) []Diagnostic {
	var diags []Diagnostic
	var prev int64
	at, i := 0, -1
	for _, page := range c.Frontiers.pages {
		for _, f := range page {
			i++
			if f.Frontier < prev {
				diags = append(diags, schedDiag(RuleSchedFrontier, "",
					fmt.Sprintf("frontier rewound from %d to %d at release %d (lease %d)",
						prev, f.Frontier, i, f.LeaseID)))
			}
			prev = f.Frontier
			s := idx.find(f.LeaseID, &at)
			if s < 0 {
				diags = append(diags, schedDiag(RuleSchedFrontier, "",
					fmt.Sprintf("release %d stamps unknown lease %d", i, f.LeaseID)))
				continue
			}
			if l := &c.Leases.pages[idx[s].at>>32][uint32(idx[s].at)]; f.Frontier < l.End {
				diags = append(diags, schedDiag(RuleSchedFrontier, l.Model,
					fmt.Sprintf("release %d of lease %d stamps frontier %d before the lease end %d",
						i, f.LeaseID, f.Frontier, l.End)))
			}
		}
	}
	return diags
}

// requestLabel names a request in a diagnostic: its ID, or its model and
// arrival when it has none.
func requestLabel(r *ScheduleRequest) string {
	if r.ID != "" {
		return r.ID
	}
	return fmt.Sprintf("request(model=%s, arrival=%d)", r.Model, r.Arrival)
}

// checkRequests verifies each request against its lease (SR-LEASE) and
// its own stage arithmetic (SR-PARTITION), and folds the request into its
// lease's member span for checkWindows.
func checkRequests(c *ScheduleView, idx leaseIndex, members []memberSpan) []Diagnostic {
	var diags []Diagnostic
	at := 0
	for _, page := range c.Requests.pages {
		for j := range page {
			r, l := &page[j], (*ScheduleLease)(nil)
			if s := idx.find(r.LeaseID, &at); s >= 0 {
				l = &c.Leases.pages[idx[s].at>>32][uint32(idx[s].at)]
				members[s].add(r.Arrival)
			}
			switch {
			case l == nil:
				diags = append(diags, schedDiag(RuleSchedLease, r.Model,
					fmt.Sprintf("%s bound to unknown lease %d", requestLabel(r), r.LeaseID)))
			case r.Model != l.Model:
				diags = append(diags, schedDiag(RuleSchedLease, r.Model,
					fmt.Sprintf("%s rode lease %d of model %q", requestLabel(r), l.ID, l.Model)))
			case r.Start != l.Start || r.End <= r.Start || r.End > l.End:
				diags = append(diags, schedDiag(RuleSchedLease, r.Model,
					fmt.Sprintf("%s window [%d, %d] outside its lease [%d, %d)", requestLabel(r), r.Start, r.End, l.Start, l.End)))
			case r.Arrival > r.Start:
				diags = append(diags, schedDiag(RuleSchedLease, r.Model,
					fmt.Sprintf("%s placed at %d before its arrival %d", requestLabel(r), r.Start, r.Arrival)))
			}
			// Stage identities: BatchWait spans arrival → batch formation,
			// LeaseWait spans batch → lease start, Execute spans the lease, and
			// the three partition Latency == End - Arrival exactly.
			switch {
			case r.BatchWait < 0 || r.LeaseWait < 0 || r.Execute < 0:
				diags = append(diags, schedDiag(RuleSchedPartition, r.Model,
					fmt.Sprintf("%s has a negative stage (batchWait %d, leaseWait %d, execute %d)",
						requestLabel(r), r.BatchWait, r.LeaseWait, r.Execute)))
			case r.BatchWait != r.BatchArrival-r.Arrival,
				r.LeaseWait != r.Start-r.BatchArrival,
				r.Execute != r.End-r.Start,
				r.Latency != r.End-r.Arrival,
				r.BatchWait+r.LeaseWait+r.Execute != r.Latency:
				diags = append(diags, schedDiag(RuleSchedPartition, r.Model,
					fmt.Sprintf("%s stages %d+%d+%d do not partition latency %d (arrival %d, batch %d, start %d, end %d)",
						requestLabel(r), r.BatchWait, r.LeaseWait, r.Execute, r.Latency, r.Arrival, r.BatchArrival, r.Start, r.End)))
			}
		}
	}
	return diags
}

// checkWindows verifies each lease's batch against the policy it was
// formed under (its lease's, or else its model's): the member count matches
// the recorded batch size and stays within MaxBatch, and — when the
// virtual window is armed — the members' arrival stamps span at most
// WindowCycles. Only trace replay forms batches under a virtual window,
// pinning every arrival under its discipline; a live batch is formed
// under a wall window, its members carry the stamps they were admitted
// with (frontier stamps and pinned graph hops alike), and the server
// records its policy without a virtual window. Requests name a lease by
// ID, so a duplicate ID's leases share the first one's members.
func checkWindows(c *ScheduleView, idx leaseIndex, members []memberSpan) []Diagnostic {
	var diags []Diagnostic
	policies := recent[string, SchedulePolicy]{miss: func(m string) SchedulePolicy { return c.Policies[m] }}
	at := 0
	for _, page := range c.Leases.pages {
		for j := range page {
			l := &page[j]
			ms := members[idx.find(l.ID, &at)]
			if ms.n != l.Batch {
				diags = append(diags, schedDiag(RuleSchedWindow, l.Model,
					fmt.Sprintf("lease %d records batch %d but %d member requests", l.ID, l.Batch, ms.n)))
				continue
			}
			// A model without a policy has the zero one, which bounds nothing.
			pol := policies.get(l.Model)
			if own, ok := c.LeasePolicies[l.ID]; ok {
				pol = own
			}
			if pol.MaxBatch > 0 && l.Batch > pol.MaxBatch {
				diags = append(diags, schedDiag(RuleSchedWindow, l.Model,
					fmt.Sprintf("lease %d batched %d requests, policy allows %d", l.ID, l.Batch, pol.MaxBatch)))
			}
			if pol.WindowCycles > 0 && ms.n > 1 && ms.hi-ms.lo > pol.WindowCycles {
				diags = append(diags, schedDiag(RuleSchedWindow, l.Model,
					fmt.Sprintf("lease %d coalesced arrivals %d cycles apart, window is %d", l.ID, ms.hi-ms.lo, pol.WindowCycles)))
			}
		}
	}
	return diags
}
