package serve

import (
	"log/slog"
	"sort"
	"time"

	"pimflow/internal/obs"
)

// pendingBatch is one model's open batch inside the dispatcher: requests
// that arrived but have not been handed to a worker yet.
type pendingBatch struct {
	model string
	lm    *LoadedModel
	items []*item
	// wallDeadline bounds the batch's wall-clock residence in the
	// dispatcher (kserve's max-latency window); zero when no wall window
	// is armed.
	wallDeadline time.Time
	// flushCycle is the virtual-time flush point for pinned-arrival
	// traffic: headArrival + WindowCycles; zero when no virtual window is
	// armed.
	flushCycle int64
	// headArrival is the pinned arrival stamp of the first member (0 for
	// frontier-stamped traffic); used only for deterministic flush order.
	headArrival int64
}

// dispatcher is the continuous batcher: a single goroutine that pops
// admitted requests as they arrive (arrival-triggered wakeup — no
// unconditional sleeps on the request path), groups them into per-model
// batches under each model's BatchPolicy, and hands full or expired
// batches to the worker pool. A batch flushes when
//
//   - it reaches its model's MaxBatch,
//   - its wall-clock window expires (timer),
//   - a pinned-arrival request's stamp passes its virtual window
//     (flushCycle), which keeps batch formation deterministic under
//     trace replay, or
//   - the queue closes: every pending batch flushes immediately, so
//     Shutdown is never delayed by an open window.
//
// Batches with no window at all coalesce exactly the same-model requests
// already admitted (the PR 5 semantics) by draining the queue
// opportunistically before flushing.
func (s *Server) dispatcher() {
	defer s.wg.Done()
	defer close(s.batches)
	pend := map[string]*pendingBatch{}
	for {
		var timeout <-chan time.Time
		var timer *time.Timer
		if dl, ok := earliestWallDeadline(pend); ok {
			d := time.Until(dl)
			if d <= 0 {
				s.flushDueWall(pend, time.Now())
				continue
			}
			timer = time.NewTimer(d)
			timeout = timer.C
		}
		it, ok, timedOut := s.queue.popUntil(timeout)
		if timer != nil {
			timer.Stop()
		}
		switch {
		case timedOut:
			s.flushDueWall(pend, time.Now())
		case !ok:
			// Drain: the queue is closed and empty. Flush everything now —
			// an open (even empty) window must not extend shutdown.
			s.flushAll(pend)
			return
		default:
			s.route(pend, it)
			// Opportunistically drain whatever is already queued so
			// windowless batches still coalesce queued same-model
			// requests without any wall-clock wait.
			for {
				more, ok := s.queue.tryPop()
				if !ok {
					break
				}
				s.route(pend, more)
			}
			s.flushWindowless(pend)
		}
	}
}

// route folds one popped item into the pending batches, flushing whatever
// its arrival makes due.
func (s *Server) route(pend map[string]*pendingBatch, it *item) {
	if it.lc != nil {
		it.popped = time.Now()
	}
	// A pinned arrival advances the virtual batching clock for every
	// model: batches whose virtual window it passes flush first, in
	// deterministic (flushCycle, model) order.
	if it.arrival > 0 {
		s.flushDueVirtual(pend, it.arrival)
	}
	lm, err := s.registry.Get(it.req.Model)
	if err != nil {
		it.finish(nil, err)
		return
	}
	p := pend[it.req.Model]
	if p == nil {
		p = &pendingBatch{model: it.req.Model, lm: lm, headArrival: it.arrival}
		if lm.Batch.MaxBatch > 1 {
			if lm.Batch.Window > 0 {
				p.wallDeadline = time.Now().Add(lm.Batch.Window)
			}
			if it.arrival > 0 && lm.Batch.WindowCycles > 0 {
				p.flushCycle = it.arrival + lm.Batch.WindowCycles
			}
		}
		pend[it.req.Model] = p
	}
	p.items = append(p.items, it)
	s.cfg.Metrics.Set("serve.batch_pending", float64(pendingCount(pend)))
	if len(p.items) >= lm.Batch.MaxBatch {
		s.flush(pend, p, "full")
	}
}

// flush hands one pending batch to the worker pool.
func (s *Server) flush(pend map[string]*pendingBatch, p *pendingBatch, why string) {
	delete(pend, p.model)
	if len(p.items) == 0 {
		return
	}
	s.cfg.Metrics.Inc(obs.LabeledKey("serve.batch_flush", "why", why))
	s.cfg.Metrics.Set("serve.batch_pending", float64(pendingCount(pend)))
	if p.items[0].lc != nil {
		now := time.Now()
		for _, it := range p.items {
			it.flushed = now
		}
	}
	if obs.Enabled(slog.LevelDebug) {
		obs.L().Debug("serve: batch flushed", "model", p.model, "size", len(p.items), "why", why)
	}
	s.batches <- p.items
}

// flushDueWall flushes every batch whose wall-clock window has expired.
func (s *Server) flushDueWall(pend map[string]*pendingBatch, now time.Time) {
	for _, p := range sortedPending(pend) {
		if !p.wallDeadline.IsZero() && !now.Before(p.wallDeadline) {
			s.flush(pend, p, "window")
		}
	}
}

// flushDueVirtual flushes every batch whose virtual window the arrival
// stamp has passed.
func (s *Server) flushDueVirtual(pend map[string]*pendingBatch, arrival int64) {
	for _, p := range sortedPending(pend) {
		if p.flushCycle > 0 && arrival > p.flushCycle {
			s.flush(pend, p, "window")
		}
	}
}

// flushWindowless flushes batches that have no window armed: they
// coalesce only what was already admitted.
func (s *Server) flushWindowless(pend map[string]*pendingBatch) {
	for _, p := range sortedPending(pend) {
		if p.wallDeadline.IsZero() && p.flushCycle == 0 {
			s.flush(pend, p, "queued")
		}
	}
}

// flushAll flushes every pending batch (drain).
//
//pimflow:deterministic
func (s *Server) flushAll(pend map[string]*pendingBatch) {
	for _, p := range sortedPending(pend) {
		s.flush(pend, p, "drain")
	}
}

// sortedPending returns the pending batches in deterministic order:
// by virtual head arrival, then flush cycle, then model name.
//
//pimflow:deterministic
func sortedPending(pend map[string]*pendingBatch) []*pendingBatch {
	out := make([]*pendingBatch, 0, len(pend))
	//lint:ignore LT-MAP-ORDER the sort below totally orders (headArrival, flushCycle, model)
	for _, p := range pend {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].headArrival != out[j].headArrival {
			return out[i].headArrival < out[j].headArrival
		}
		if out[i].flushCycle != out[j].flushCycle {
			return out[i].flushCycle < out[j].flushCycle
		}
		return out[i].model < out[j].model
	})
	return out
}

func pendingCount(pend map[string]*pendingBatch) int {
	n := 0
	for _, p := range pend {
		n += len(p.items)
	}
	return n
}

// earliestWallDeadline returns the soonest armed wall-clock flush
// deadline among the pending batches.
func earliestWallDeadline(pend map[string]*pendingBatch) (time.Time, bool) {
	var best time.Time
	for _, p := range pend {
		if p.wallDeadline.IsZero() {
			continue
		}
		if best.IsZero() || p.wallDeadline.Before(best) {
			best = p.wallDeadline
		}
	}
	return best, !best.IsZero()
}
