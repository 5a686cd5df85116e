package serve

import (
	"context"
	"fmt"
	"time"

	"sync"

	"pimflow/internal/obs"
)

// AdmissionPolicy selects the backpressure behavior of a full admission
// queue.
type AdmissionPolicy int

const (
	// AdmitReject fails new arrivals immediately with ErrQueueFull (the
	// HTTP layer maps it to 429).
	AdmitReject AdmissionPolicy = iota
	// AdmitBlock blocks the submitter until space frees or its context
	// ends.
	AdmitBlock
	// AdmitShedOldest makes room for a new arrival by shedding the queued
	// request the shed-victim rule picks: a canceled request first, then the
	// SLO-bearing request most likely to miss its virtual deadline, then
	// the oldest best-effort request, then the oldest outright. When the
	// new arrival itself is the most hopeless candidate, admission fails
	// with ErrShed instead of displacing queued work.
	AdmitShedOldest
)

func (p AdmissionPolicy) String() string {
	switch p {
	case AdmitBlock:
		return "block"
	case AdmitShedOldest:
		return "shed-oldest"
	default:
		return "reject"
	}
}

// ParseAdmissionPolicy resolves a policy name ("reject", "block",
// "shed-oldest").
func ParseAdmissionPolicy(s string) (AdmissionPolicy, error) {
	switch s {
	case "reject":
		return AdmitReject, nil
	case "block":
		return AdmitBlock, nil
	case "shed-oldest", "shed":
		return AdmitShedOldest, nil
	}
	return 0, fmt.Errorf("serve: unknown admission policy %q (reject, block, shed-oldest)", s)
}

// result is one finished request: a response or an error.
type result struct {
	resp *InferResponse
	err  error
}

// item is one queued request plus its completion channel and the
// admission-time stamps the shed policy and the batcher read.
type item struct {
	req InferRequest
	ctx context.Context
	// reply carries the outcome to a Submit caller waiting on another
	// goroutine. InferBatch members have none: process runs on the
	// caller's goroutine, so their outcome stays in out.
	reply chan result
	out   result
	// enqueued is the submission wall stamp, taken only when lifecycle
	// tracking is on (its one reader).
	enqueued time.Time
	// service is the estimated service time in cycles (warm solo latency
	// of the model), stamped at admission for shed-victim selection.
	service int64
	// slo is the effective virtual-cycle deadline: the tighter of the
	// request's explicit DeadlineCycles and the model's SLO target; 0
	// means best-effort.
	slo int64
	// arrival is the request's virtual arrival stamp: an InferBatch
	// member's pinned req.ArrivalCycle, else the completion frontier at
	// admission.
	arrival int64

	// Lifecycle tracking (all zero when Config.RequestLog is off): the
	// request ID, the model's SLO class name, the dispatcher-pop and
	// batch-flush wall stamps, and the server's tracker.
	id      string
	sloName string
	popped  time.Time
	flushed time.Time
	lc      *Lifecycle
}

// finish completes the item: the outcome lands in out and, for a
// submitted request, on the reply channel. The channel has capacity one
// and is written exactly once, so finish never blocks the dispatcher
// even when the submitter already gave up. When lifecycle tracking is on,
// completion is also the single point where the request's span is
// recorded — every terminal path (served, shed, expired, violated,
// drained) runs through here.
func (it *item) finish(resp *InferResponse, err error) {
	it.lc.complete(it, resp, err)
	it.out = result{resp: resp, err: err}
	if it.reply != nil {
		it.reply <- it.out
	}
}

// candidate projects the item for shed-victim selection.
func (it *item) candidate() shedCandidate {
	return shedCandidate{
		Canceled: it.ctx.Err() != nil,
		Deadline: it.slo,
		Service:  it.service,
	}
}

// queue is the bounded admission queue: a FIFO of pending requests with a
// configurable full-queue policy and graceful close (pending items stay
// poppable after Close so the dispatcher can drain them).
type queue struct {
	mu     sync.Mutex
	items  []*item // guarded by mu
	max    int
	policy AdmissionPolicy
	closed bool // guarded by mu

	notEmpty chan struct{} // single-slot wakeup for the waiting dispatcher
	space    chan struct{} // single-slot wakeup for blocked submitters
	done     chan struct{} // closed by Close

	metrics *obs.Metrics
}

func newQueue(max int, policy AdmissionPolicy, metrics *obs.Metrics) *queue {
	return &queue{
		max:      max,
		policy:   policy,
		notEmpty: make(chan struct{}, 1),
		space:    make(chan struct{}, 1),
		done:     make(chan struct{}),
		metrics:  metrics,
	}
}

// signal performs a non-blocking single-slot wakeup.
func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// setDepthLocked publishes the queue-depth gauge. It must run under q.mu:
// publishing after the unlock lets concurrent push/pop interleave their
// stale depths out of order and park the gauge on a wrong value.
func (q *queue) setDepthLocked() {
	q.metrics.Set("serve.queue_depth", float64(len(q.items)))
}

// push admits an item under the queue's policy.
func (q *queue) push(it *item) error {
	for {
		q.mu.Lock()
		if q.closed {
			q.mu.Unlock()
			return ErrDraining
		}
		if len(q.items) < q.max {
			q.items = append(q.items, it)
			spare := len(q.items) < q.max
			q.setDepthLocked()
			q.mu.Unlock()
			signal(q.notEmpty)
			if spare {
				// Chain the wakeup so several blocked submitters drain in
				// sequence when a batch pop freed several slots at once.
				signal(q.space)
			}
			return nil
		}
		switch q.policy {
		case AdmitShedOldest:
			cands := make([]shedCandidate, 0, len(q.items)+1)
			for _, qi := range q.items {
				cands = append(cands, qi.candidate())
			}
			cands = append(cands, it.candidate())
			v := pickShedVictim(cands)
			if v == len(q.items) {
				// The arrival itself is the most hopeless candidate:
				// refuse it rather than displace queued work.
				q.mu.Unlock()
				q.metrics.Inc("serve.queue_shed")
				return ErrShed
			}
			old := q.items[v]
			q.items = append(q.items[:v], q.items[v+1:]...)
			q.items = append(q.items, it)
			q.setDepthLocked()
			q.mu.Unlock()
			q.metrics.Inc("serve.queue_shed")
			old.finish(nil, ErrShed)
			signal(q.notEmpty)
			return nil
		case AdmitBlock:
			q.mu.Unlock()
			select {
			case <-it.ctx.Done():
				return it.ctx.Err()
			case <-q.space:
				// retry
			case <-q.done:
				return ErrDraining
			}
		default: // AdmitReject
			q.mu.Unlock()
			q.metrics.Inc("serve.queue_rejected")
			return ErrQueueFull
		}
	}
}

// popUntil removes the next live queue item, blocking until one arrives,
// the timeout channel fires (timedOut true), or the queue is closed and
// fully drained (ok false). Requests whose context already ended are
// completed with their context error at pop time and never returned, so a
// dead request can never occupy a batch slot a live one should have taken.
func (q *queue) popUntil(timeout <-chan time.Time) (it *item, ok bool, timedOut bool) {
	for {
		q.mu.Lock()
		popped := 0
		for len(q.items) > 0 {
			head := q.items[0]
			q.items = append(q.items[:0], q.items[1:]...)
			popped++
			if err := head.ctx.Err(); err != nil {
				// Dead at pop time: complete it now and keep scanning.
				head.finish(nil, err)
				q.metrics.Inc("serve.queue_expired")
				continue
			}
			q.setDepthLocked()
			depth := len(q.items)
			q.mu.Unlock()
			signal(q.space)
			if depth > 0 {
				signal(q.notEmpty)
			}
			return head, true, false
		}
		if popped > 0 {
			q.setDepthLocked()
		}
		closed := q.closed
		q.mu.Unlock()
		if popped > 0 {
			signal(q.space)
		}
		if closed {
			return nil, false, false
		}
		select {
		case <-q.notEmpty:
		case <-q.done:
			// Loop once more: items admitted just before Close must drain.
		case <-timeout:
			return nil, true, true
		}
	}
}

// tryPop removes the next live queue item without blocking; ok is false
// when the queue is momentarily empty (or closed and drained).
func (q *queue) tryPop() (*item, bool) {
	q.mu.Lock()
	for len(q.items) > 0 {
		head := q.items[0]
		q.items = append(q.items[:0], q.items[1:]...)
		if err := head.ctx.Err(); err != nil {
			head.finish(nil, err)
			q.metrics.Inc("serve.queue_expired")
			continue
		}
		q.setDepthLocked()
		depth := len(q.items)
		q.mu.Unlock()
		signal(q.space)
		if depth > 0 {
			signal(q.notEmpty)
		}
		return head, true
	}
	q.setDepthLocked()
	q.mu.Unlock()
	signal(q.space)
	return nil, false
}

// depth returns the number of queued items.
func (q *queue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// close stops admission; already-queued items remain poppable.
func (q *queue) close() {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		close(q.done)
	}
	q.mu.Unlock()
}
