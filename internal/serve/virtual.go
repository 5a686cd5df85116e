// The virtual queue is the replay drivers' admission, continuous
// batching and shedding on the virtual timeline: one goroutine, no
// channels, no wall clock.
//
//pimflow:virtual-time

package serve

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"
)

// VirtualQueue is one machine's admission queue and continuous batcher
// in virtual time, the deterministic counterpart of the live queue and
// dispatcher that load.Replay and fleet.Replay drive on one goroutine.
//
// Occupancy is the open (unflushed, unshed) members plus the served
// members whose completions are still in the virtual future. A full
// queue refuses the arrival (AdmitReject) or sheds the victim the live
// queue's policy picks among the open members, oldest first, and the
// arrival (AdmitShedOldest). Each model's open batch flushes through
// Server.InferBatch when it holds MaxBatch members, at once when the
// model has no virtual window, or when an arrival passes the window
// (head arrival + WindowCycles); Head and FlushHead drain what is still
// open when the trace ends.
//
// Every admitted payload's outcome reaches done exactly once: the
// member's response, ErrQueueFull, ErrShed, or the error InferBatch gave
// the member. done runs inside Admit or FlushHead and must not call back
// into the queue. The response lives in storage the queue reuses for its
// next batch, so it is valid only until done returns: a driver copies
// the fields it keeps.
type VirtualQueue[P any] struct {
	srv   *Server
	depth int
	shed  bool
	done  func(p P, resp *InferResponse, err error)

	// models are sorted by name, the order every scan over open batches
	// visits them in, so equal cycles resolve by name.
	models []*virtualModel[P]
	byName map[string]*virtualModel[P]
	ends   completions // completion cycles of served members
	queued int         // open, unshed members

	// Buffers reused from one shed or flush to the next; opts carries
	// InferBatch's.
	order []*virtualItem[P]
	cands []shedCandidate
	batch []InferRequest
	opts  BatchOptions
}

// virtualModel is one model's batching and shed-prediction policy plus
// its open batch.
type virtualModel[P any] struct {
	name     string
	service  int64 // warm solo latency: the shed prediction's estimate
	deadline int64 // SLO target, 0 best-effort
	maxBatch int
	window   int64
	// The open batch: members in admission order, shed ones included
	// (the first member's cycle orders trailing flushes), the unshed
	// count, and the cycle the window ends at (0: flush at once). Flush
	// empties items and the model's next arrival reuses its buffer.
	items      []virtualItem[P]
	live       int
	flushCycle int64
}

// virtualItem is one admitted member of an open batch.
type virtualItem[P any] struct {
	cycle int64
	m     *virtualModel[P]
	shed  bool
	p     P
}

// NewVirtualQueue returns an empty queue over srv's loaded models: depth
// bounds its occupancy, policy is AdmitReject or AdmitShedOldest (an
// open-loop replay cannot block its arrivals), every batch goes to
// InferBatch, and done receives each payload's outcome.
func NewVirtualQueue[P any](srv *Server, depth int, policy AdmissionPolicy, done func(p P, resp *InferResponse, err error)) (*VirtualQueue[P], error) {
	if policy != AdmitReject && policy != AdmitShedOldest {
		return nil, fmt.Errorf("serve: virtual queue admission %q (open-loop replay supports reject and shed-oldest)", policy)
	}
	return &VirtualQueue[P]{
		srv:    srv,
		depth:  depth,
		shed:   policy == AdmitShedOldest,
		done:   done,
		byName: map[string]*virtualModel[P]{},
		opts:   BatchOptions{buffers: new(batchBuffers)},
	}, nil
}

// Admit offers payload p for model at virtual cycle now. It first
// flushes every window now has passed and retires the completions at or
// before now; then a full queue refuses or sheds, the arrival opens or
// joins its model's batch, and a batch that is full or windowless
// flushes. The error is a registry or InferBatch failure for the whole
// call; outcomes of single payloads go to done.
//
//pimflow:deterministic
func (q *VirtualQueue[P]) Admit(now int64, model string, p P) error {
	m, err := q.model(model)
	if err != nil {
		return err
	}
	if err := q.flushDue(now); err != nil {
		return err
	}
	if q.Occupancy(now) >= q.depth {
		if !q.shed {
			q.done(p, nil, ErrQueueFull)
			return nil
		}
		ps := q.openInOrder()
		cands := q.cands[:0]
		for _, it := range ps {
			cands = append(cands, shedCandidate{Deadline: it.m.deadline, Service: it.m.service})
		}
		cands = append(cands, shedCandidate{Deadline: m.deadline, Service: m.service})
		q.cands = cands
		v := pickShedVictim(cands)
		if v == len(ps) {
			// The arrival itself is the most hopeless candidate.
			q.done(p, nil, ErrShed)
			return nil
		}
		victim := ps[v]
		victim.shed = true
		victim.m.live--
		q.queued--
		q.done(victim.p, nil, ErrShed)
	}
	if len(m.items) == 0 {
		m.flushCycle = 0
		if m.maxBatch > 1 && m.window > 0 {
			m.flushCycle = now + m.window
		}
	}
	m.items = append(m.items, virtualItem[P]{cycle: now, m: m, p: p})
	m.live++
	q.queued++
	if m.live >= m.maxBatch || m.flushCycle == 0 {
		return q.flush(m)
	}
	return nil
}

// Occupancy retires the completions at or before now and returns the
// open, unshed members plus the served members still in flight. It
// flushes no window, so a router comparing machines by it sees each one
// as its last admission left it.
func (q *VirtualQueue[P]) Occupancy(now int64) int {
	q.ends.prune(now)
	return len(q.ends) + q.queued
}

// Head returns the first member's cycle of the open batch FlushHead
// flushes next: the earliest first member, shed members included, ties
// to the first model name. ok is false when no batch is open.
func (q *VirtualQueue[P]) Head() (cycle int64, ok bool) {
	if m := q.head(); m != nil {
		return m.items[0].cycle, true
	}
	return 0, false
}

// FlushHead flushes the open batch Head reports, if there is one.
func (q *VirtualQueue[P]) FlushHead() error {
	if m := q.head(); m != nil {
		return q.flush(m)
	}
	return nil
}

// model returns the named model's state, reading its policy from the
// server's registry the first time the model is admitted.
func (q *VirtualQueue[P]) model(name string) (*virtualModel[P], error) {
	if m, ok := q.byName[name]; ok {
		return m, nil
	}
	lm, err := q.srv.registry.Get(name)
	if err != nil {
		return nil, err
	}
	m := &virtualModel[P]{
		name:     name,
		service:  lm.Solo.DurationCycles(),
		deadline: lm.SLOTarget,
		maxBatch: lm.Batch.MaxBatch,
		window:   lm.Batch.WindowCycles,
	}
	i, _ := slices.BinarySearchFunc(q.models, name, func(m *virtualModel[P], name string) int {
		return strings.Compare(m.name, name)
	})
	q.models = slices.Insert(q.models, i, m)
	q.byName[name] = m
	return m, nil
}

// head returns the open batch with the earliest first member, ties to
// the first name; nil when nothing is open.
//
//pimflow:deterministic
func (q *VirtualQueue[P]) head() *virtualModel[P] {
	var h *virtualModel[P]
	for _, m := range q.models {
		if len(m.items) > 0 && (h == nil || m.items[0].cycle < h.items[0].cycle) {
			h = m
		}
	}
	return h
}

// flushDue flushes, in (flushCycle, model) order, every open batch whose
// window now has passed: the scan visits models by name and keeps a
// strict minimum, so equal flush cycles go by name.
//
//pimflow:deterministic
func (q *VirtualQueue[P]) flushDue(now int64) error {
	for {
		var due *virtualModel[P]
		for _, m := range q.models {
			if len(m.items) > 0 && m.flushCycle > 0 && now > m.flushCycle &&
				(due == nil || m.flushCycle < due.flushCycle) {
				due = m
			}
		}
		if due == nil {
			return nil
		}
		if err := q.flush(due); err != nil {
			return err
		}
	}
}

// openInOrder lists the open, unshed members oldest first, the candidate
// order pickShedVictim expects. The scan visits models by name and the
// sort is stable, so members of different models admitted on one cycle
// keep one fixed order. The slice is reused by the next call, and its
// pointers are good until the next append to a batch.
//
//pimflow:deterministic
func (q *VirtualQueue[P]) openInOrder() []*virtualItem[P] {
	ps := q.order[:0]
	for _, m := range q.models {
		for i := range m.items {
			if it := &m.items[i]; !it.shed {
				ps = append(ps, it)
			}
		}
	}
	slices.SortStableFunc(ps, func(a, b *virtualItem[P]) int { return cmp.Compare(a.cycle, b.cycle) })
	q.order = ps
	return ps
}

// flush hands the model's open batch, less its shed members, to
// InferBatch and reports each member's outcome in batch order. The batch
// is empty afterwards even when InferBatch fails.
func (q *VirtualQueue[P]) flush(m *virtualModel[P]) error {
	items := m.items
	batch := q.batch[:0]
	for i := range items {
		if !items[i].shed {
			batch = append(batch, InferRequest{Model: m.name, ArrivalCycle: items[i].cycle})
		}
	}
	q.batch = batch
	m.items, m.live = items[:0], 0
	q.queued -= len(batch)
	if len(batch) == 0 {
		return nil
	}
	outs, err := q.srv.InferBatch(context.Background(), batch, q.opts)
	if err != nil {
		return err
	}
	k := 0
	for i := range items {
		if items[i].shed {
			continue
		}
		o := outs[k]
		k++
		if o.Err == nil {
			q.ends.push(o.Resp.EndCycle)
		}
		q.done(items[i].p, o.Resp, o.Err)
	}
	return nil
}

// completions is a min-heap of in-flight completion cycles.
type completions []int64

func (h *completions) push(c int64) {
	s := append(*h, c)
	for i := len(s) - 1; i > 0; {
		up := (i - 1) / 2
		if s[up] <= s[i] {
			break
		}
		s[up], s[i] = s[i], s[up]
		i = up
	}
	*h = s
}

// prune removes every completion at or before now.
func (h *completions) prune(now int64) {
	s := *h
	for len(s) > 0 && s[0] <= now {
		n := len(s) - 1
		s[0] = s[n]
		s = s[:n]
		for i := 0; ; {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && s[c+1] < s[c] {
				c++
			}
			if s[i] <= s[c] {
				break
			}
			s[i], s[c] = s[c], s[i]
			i = c
		}
	}
	*h = s
}
