package serve

import (
	"log/slog"
	"sort"
	"time"

	"pimflow/internal/obs"
)

// pendingBatch is one model's open batch inside the dispatcher: requests
// that arrived but have not been served yet.
type pendingBatch struct {
	model string
	items []*item
	// wallDeadline bounds the batch's wall-clock residence in the
	// dispatcher (kserve's max-latency window); zero when no wall window
	// is armed.
	wallDeadline time.Time
}

// dispatcher is the continuous batcher: a single goroutine that pops
// admitted requests as they arrive (arrival-triggered wakeup — no
// unconditional sleeps on the request path), groups them into per-model
// batches under each model's BatchPolicy, and serves each batch it
// flushes before it pops again. A batch flushes when
//
//   - it reaches its model's MaxBatch,
//   - its wall-clock window expires (timer), or
//   - the queue closes: every pending batch flushes immediately, so
//     Shutdown is never delayed by an open window.
//
// Batches with no window at all coalesce exactly the same-model requests
// already admitted by draining the queue opportunistically before
// flushing; requests admitted while a batch is being served wait in the
// queue and coalesce on the next pass.
//
// Each request arrives in virtual time at the completion frontier as
// Submit found it, so requests that wait together arrive together:
// their batches are placed side by side, models on disjoint channel
// slices overlap and contending ones queue, although the dispatcher
// serves one batch at a time.
func (s *Server) dispatcher() {
	defer s.wg.Done()
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

// route folds one popped item into the pending batches, flushing the
// batch it fills.
func (s *Server) route(pend map[string]*pendingBatch, it *item) {
	if it.lc != nil {
		it.popped = time.Now()
	}
	lm, err := s.registry.Get(it.req.Model)
	if err != nil {
		it.finish(nil, err)
		return
	}
	p := pend[it.req.Model]
	if p == nil {
		p = &pendingBatch{model: it.req.Model}
		if lm.Batch.MaxBatch > 1 && lm.Batch.Window > 0 {
			p.wallDeadline = time.Now().Add(lm.Batch.Window)
		}
		pend[it.req.Model] = p
	}
	p.items = append(p.items, it)
	s.cfg.Metrics.Set("serve.batch_pending", float64(pendingCount(pend)))
	if len(p.items) >= lm.Batch.MaxBatch {
		s.flush(pend, p, "full")
	}
}

// flush serves one pending batch: its model is resolved again, since an
// unload may have come while the batch was open, then process places and
// completes it. Each batch's responses go to submitters that keep them,
// so every batch gets fresh response storage.
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
	lm, err := s.registry.Get(p.model)
	if err != nil {
		for _, it := range dropCanceled(p.items) {
			it.finish(nil, err)
		}
		return
	}
	s.process(p.items, lm, lm.record, nil)
}

// flushDueWall flushes every batch whose wall-clock window has expired.
func (s *Server) flushDueWall(pend map[string]*pendingBatch, now time.Time) {
	for _, p := range sortedPending(pend) {
		if !p.wallDeadline.IsZero() && !now.Before(p.wallDeadline) {
			s.flush(pend, p, "window")
		}
	}
}

// flushWindowless flushes batches that have no window armed: they
// coalesce only what was already admitted.
func (s *Server) flushWindowless(pend map[string]*pendingBatch) {
	for _, p := range sortedPending(pend) {
		if p.wallDeadline.IsZero() {
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

// sortedPending returns the pending batches in model-name order.
//
//pimflow:deterministic
func sortedPending(pend map[string]*pendingBatch) []*pendingBatch {
	out := make([]*pendingBatch, 0, len(pend))
	//lint:ignore LT-MAP-ORDER the sort below totally orders the batches by model
	for _, p := range pend {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].model < out[j].model })
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
