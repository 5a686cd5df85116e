package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"pimflow/internal/obs"
	"pimflow/internal/profcache"
	"pimflow/internal/runtime"
)

// Config parameterizes a Server.
type Config struct {
	// Machine is the lease-able resource pool; zero value takes the
	// paper's 16+16 channel default.
	Machine Machine
	// QueueDepth bounds the admission queue (default 64).
	QueueDepth int
	// Admission selects the full-queue backpressure policy.
	Admission AdmissionPolicy
	// Workers is the number of request-processing goroutines (default 4).
	// Workers bound host-side concurrency; simulated-time concurrency is
	// bounded by the machine's channel groups.
	Workers int
	// MaxBatch is the default largest same-model coalesced batch
	// (default 1, no batching); ModelSpec.MaxBatch overrides per model.
	MaxBatch int
	// BatchWindow is the default wall-clock coalescing window: after the
	// first request opens a batch the dispatcher holds it open this long
	// for same-model arrivals (default 0: coalesce only requests already
	// queued). ModelSpec.BatchWindowMillis overrides per model.
	BatchWindow time.Duration
	// BatchWindowCycles is the default virtual-time coalescing window for
	// pinned-arrival (trace replay) traffic; ModelSpec.BatchWindowCycles
	// overrides per model.
	BatchWindowCycles int64
	// SLOClasses is the latency-SLO ladder model specs name into
	// (default DefaultSLOClasses).
	SLOClasses []SLOClass
	// Profiles optionally shares a profile store with other components;
	// nil gets a private one.
	Profiles *profcache.Store
	// Metrics receives the serving counters, gauges, and histograms and
	// backs the /metrics endpoint; nil gets a private registry.
	Metrics *obs.Metrics
	// Trace, when non-nil, collects wall-clock serving spans plus every
	// execution's simulated-timeline spans at its placed virtual offset
	// (per-node spans only: the per-command channel detail of a solo
	// traced run would grow one shared trace without bound).
	Trace *obs.Trace
	// RequestLog, when positive, turns on request-lifecycle tracking:
	// every request gets an ID, a per-stage span record kept in a ring of
	// this size (served by /debug/requests), labeled stage histograms
	// with request-ID exemplars, and a request lane in Trace. Zero (the
	// default) keeps the request path free of any tracking cost.
	RequestLog int
	// Certify records the schedule certificate — every successful lease,
	// its member requests, and each release's frontier stamp — for
	// verify.Schedule's SR-* checks (see Server.Certificate). The record
	// grows with traffic, so it is meant for bounded runs: trace replay,
	// tests, and pimflow-serve -verify.
	Certify bool
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Machine == (Machine{}) {
		c.Machine = DefaultMachine()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 1
	}
	if c.SLOClasses == nil {
		c.SLOClasses = DefaultSLOClasses()
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewMetrics()
	}
	return c
}

// servingDefaults projects the config's per-model defaults for the
// registry's policy resolution.
func (c Config) servingDefaults() ServingDefaults {
	return ServingDefaults{
		MaxBatch:          c.MaxBatch,
		BatchWindow:       c.BatchWindow,
		BatchWindowCycles: c.BatchWindowCycles,
		SLOClasses:        c.SLOClasses,
	}
}

// InferRequest is one typed inference request.
type InferRequest struct {
	// Model is the serving name of a loaded model.
	Model string `json:"model"`
	// DeadlineCycles, when positive, is a virtual-time deadline relative
	// to the request's arrival stamp: if the placed completion would
	// exceed it, the request fails with ErrDeadlineViolation instead of
	// executing (admission control in simulated time). Wall-clock
	// deadlines travel on the context instead.
	DeadlineCycles int64 `json:"deadlineCycles,omitempty"`
	// ArrivalCycle, when positive, pins the request's virtual arrival
	// stamp (trace replay); zero stamps it from the completion frontier
	// at placement. Pinned arrivals must be nondecreasing across requests
	// (see Scheduler).
	ArrivalCycle int64 `json:"arrivalCycle,omitempty"`
}

// InferResponse reports one served inference on the shared virtual
// timeline.
type InferResponse struct {
	Model string `json:"model"`
	// ArrivalCycle is the request's virtual arrival stamp; StartCycle and
	// EndCycle bound its execution window.
	ArrivalCycle int64 `json:"arrivalCycle"`
	StartCycle   int64 `json:"startCycle"`
	EndCycle     int64 `json:"endCycle"`
	// QueueCycles is time spent waiting on channel-group contention;
	// LatencyCycles is queueing plus service.
	QueueCycles   int64 `json:"queueCycles"`
	LatencyCycles int64 `json:"latencyCycles"`
	// Stage decomposition of LatencyCycles (see StageCycles):
	// BatchWaitCycles from this request's arrival to its batch's arrival,
	// LeaseWaitCycles from the batch arrival to the lease start, and
	// ExecuteCycles from the lease start to this member's completion.
	// BatchWait + LeaseWait + Execute == LatencyCycles exactly, and
	// BatchWait + LeaseWait == QueueCycles.
	BatchWaitCycles int64 `json:"batchWaitCycles"`
	LeaseWaitCycles int64 `json:"leaseWaitCycles"`
	ExecuteCycles   int64 `json:"executeCycles"`
	// RequestID identifies the request in /debug/requests, histogram
	// exemplars, and trace lanes; empty when request logging is off.
	RequestID string `json:"requestId,omitempty"`
	// LatencyMillis is LatencyCycles in simulated milliseconds.
	LatencyMillis float64 `json:"latencyMillis"`
	// BatchSize and BatchIndex locate the request in its coalesced batch.
	BatchSize  int `json:"batchSize"`
	BatchIndex int `json:"batchIndex"`
	// SLOClass is the model's latency class; SLOMiss reports a completion
	// past the class target (soft: the request still served).
	SLOClass string `json:"sloClass,omitempty"`
	SLOMiss  bool   `json:"sloMiss,omitempty"`
	// GPUBusy and PIMBusy echo the executed schedule's busy cycles.
	GPUBusy int64 `json:"gpuBusyCycles"`
	PIMBusy int64 `json:"pimBusyCycles"`
}

// Server is the concurrent inference service: registry in front, bounded
// admission queue, continuous per-model batcher, worker pool, and the
// virtual-time resource scheduler.
type Server struct {
	cfg       Config
	registry  *Registry
	queue     *queue
	sched     *Scheduler
	batches   chan []*item
	lifecycle *Lifecycle    // nil when Config.RequestLog is zero
	cert      *certRecorder // nil unless Config.Certify

	mu       sync.Mutex
	draining bool // guarded by mu

	wg      sync.WaitGroup
	started time.Time
}

// NewServer builds and starts a server (its dispatcher and worker pool
// run until Shutdown).
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Machine.Validate(); err != nil {
		return nil, err
	}
	if cfg.Profiles == nil {
		cfg.Profiles = profcache.New()
	}
	s := &Server{
		cfg:       cfg,
		registry:  NewRegistry(cfg.Machine, cfg.Profiles, cfg.Metrics, cfg.Trace, cfg.servingDefaults()),
		queue:     newQueue(cfg.QueueDepth, cfg.Admission, cfg.Metrics),
		sched:     NewScheduler(cfg.Machine, cfg.Metrics),
		batches:   make(chan []*item, 2*cfg.Workers),
		lifecycle: newLifecycle(cfg.RequestLog, cfg.Metrics, cfg.Trace),
		started:   time.Now(),
	}
	if cfg.Certify {
		s.cert = newCertRecorder()
		s.sched.onRelease = s.cert.frontier
	}
	s.wg.Add(1)
	go s.dispatcher()
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Registry exposes the model registry (Load/Unload/List).
func (s *Server) Registry() *Registry { return s.registry }

// Scheduler exposes the resource scheduler (read-mostly; tests and the
// health endpoint use it).
func (s *Server) Scheduler() *Scheduler { return s.sched }

// Metrics returns the server's metrics registry.
func (s *Server) Metrics() *obs.Metrics { return s.cfg.Metrics }

// Machine returns the simulated machine the server schedules over.
func (s *Server) Machine() Machine { return s.cfg.Machine }

// Draining reports whether shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Pending is one submitted, not-yet-completed request.
type Pending struct {
	s   *Server
	it  *item
	end func(map[string]any)
}

// Submit admits one request into the serving pipeline and returns a
// handle to wait on. Admission errors (unknown model, full queue, shed,
// draining) are returned immediately.
func (s *Server) Submit(ctx context.Context, req InferRequest) (*Pending, error) {
	s.cfg.Metrics.Inc("serve.requests")
	if s.Draining() {
		s.cfg.Metrics.Inc("serve.errors.draining")
		return nil, ErrDraining
	}
	// Fail unknown models before they occupy queue space; the lookup also
	// stamps the shed-policy inputs (service estimate and SLO deadline).
	lm, err := s.registry.Get(req.Model)
	if err != nil {
		s.cfg.Metrics.Inc("serve.errors.not_loaded")
		return nil, err
	}
	end := s.cfg.Trace.Span("serve-req", req.Model, "serve.request", map[string]any{"model": req.Model})
	it := &item{reply: make(chan result, 1)}
	s.initItem(ctx, it, req, lm)
	if err := s.queue.push(it); err != nil {
		// Admission failures bypass the queue's completion paths; record
		// the span here (the reply write is unread and harmless).
		if it.lc != nil {
			it.finish(nil, err)
		}
		end(map[string]any{"error": err.Error()})
		s.countError(err)
		return nil, err
	}
	return &Pending{s: s, it: it, end: end}, nil
}

// initItem stamps one request's item with the shed-policy inputs (service
// estimate and effective deadline) and, when lifecycle tracking is on,
// its ID, SLO class and submission wall stamp.
func (s *Server) initItem(ctx context.Context, it *item, req InferRequest, lm *LoadedModel) {
	it.req = req
	it.ctx = ctx
	it.service = lm.Solo.DurationCycles()
	it.slo = effectiveDeadline(req.DeadlineCycles, lm.SLOTarget)
	it.arrival = req.ArrivalCycle
	if s.lifecycle != nil {
		it.id = s.lifecycle.nextID()
		it.sloName = lm.SLO.Name
		it.lc = s.lifecycle
		it.enqueued = time.Now()
	}
}

// effectiveDeadline combines an explicit virtual deadline with the SLO
// target: the tighter positive one wins.
func effectiveDeadline(explicit, slo int64) int64 {
	switch {
	case explicit > 0 && slo > 0:
		if explicit < slo {
			return explicit
		}
		return slo
	case explicit > 0:
		return explicit
	default:
		return slo
	}
}

// Wait blocks for the request's completion or the context's end.
func (p *Pending) Wait(ctx context.Context) (*InferResponse, error) {
	select {
	case res := <-p.it.reply:
		if res.err != nil {
			p.end(map[string]any{"error": res.err.Error()})
			p.s.countError(res.err)
			return nil, res.err
		}
		p.end(map[string]any{
			"latencyCycles": res.resp.LatencyCycles,
			"queueCycles":   res.resp.QueueCycles,
			"batchSize":     res.resp.BatchSize,
		})
		p.s.cfg.Metrics.Inc("serve.responses")
		return res.resp, nil
	case <-ctx.Done():
		// The worker may still pick the item up; its reply lands in the
		// buffered channel and is dropped.
		p.end(map[string]any{"error": ctx.Err().Error()})
		p.s.cfg.Metrics.Inc("serve.errors.context")
		return nil, ctx.Err()
	}
}

// Infer submits one request and waits for its completion or the context's
// end. The context carries the wall-clock deadline; req.DeadlineCycles
// carries the virtual one.
func (s *Server) Infer(ctx context.Context, req InferRequest) (*InferResponse, error) {
	p, err := s.Submit(ctx, req)
	if err != nil {
		return nil, err
	}
	return p.Wait(ctx)
}

// BatchOptions parameterizes InferBatch.
type BatchOptions struct {
	// Execute runs the compiled plan at the placed virtual offset (the
	// live-path behavior, feeding the shared trace). When false the
	// response's busy cycles echo the warm solo report instead; latency
	// numbers are identical either way — they are lease arithmetic — and
	// replaying millions of requests turns execution off.
	Execute bool
}

// InferOutcome is one request's result from InferBatch.
type InferOutcome struct {
	Resp *InferResponse
	Err  error
}

// InferBatch serves a pre-formed same-model batch synchronously on the
// caller's goroutine, bypassing the admission queue and the dispatcher:
// the trace-replay harness forms batches deterministically in virtual
// time and calls this for each one. Placement, virtual-deadline
// enforcement, SLO accounting, and metrics are exactly the live path's.
// The outcomes come back in request order; no channel is involved, as
// process completes every member before it returns.
func (s *Server) InferBatch(ctx context.Context, reqs []InferRequest, opts BatchOptions) ([]InferOutcome, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("serve: empty batch")
	}
	for _, r := range reqs[1:] {
		if r.Model != reqs[0].Model {
			return nil, fmt.Errorf("serve: mixed-model batch (%q vs %q)", reqs[0].Model, r.Model)
		}
	}
	if s.Draining() {
		return nil, ErrDraining
	}
	lm, err := s.registry.Get(reqs[0].Model)
	if err != nil {
		return nil, err
	}
	s.cfg.Metrics.Add("serve.requests", int64(len(reqs)))
	items := make([]item, len(reqs))
	batch := make([]*item, len(reqs))
	for i, r := range reqs {
		s.initItem(ctx, &items[i], r, lm)
		batch[i] = &items[i]
	}
	// process compacts batch in place as members drop out; items keeps
	// request order for the read-back.
	s.process(batch, opts.Execute)
	out := make([]InferOutcome, len(items))
	for i := range items {
		res := items[i].out
		out[i] = InferOutcome{Resp: res.resp, Err: res.err}
		if res.err != nil {
			s.countError(res.err)
		} else {
			s.cfg.Metrics.Inc("serve.responses")
		}
	}
	return out, nil
}

// countError folds an error into the metrics registry by kind.
func (s *Server) countError(err error) {
	switch {
	case errors.Is(err, ErrShed):
		s.cfg.Metrics.Inc("serve.errors.shed")
	case errors.Is(err, ErrDeadlineViolation):
		s.cfg.Metrics.Inc("serve.deadline_violations")
	case errors.Is(err, ErrQueueFull):
		s.cfg.Metrics.Inc("serve.errors.queue_full")
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		s.cfg.Metrics.Inc("serve.errors.context")
	default:
		s.cfg.Metrics.Inc("serve.errors.other")
	}
}

// Shutdown drains the server gracefully: new requests fail with
// ErrDraining, queued requests finish (open batch windows flush
// immediately — the window never extends the drain), workers exit. It
// returns the context's error if draining outlives it.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already {
		s.queue.close()
		if obs.Enabled(slog.LevelInfo) {
			obs.L().Info("serve: draining", "queued", s.queue.depth(), "inFlight", s.sched.InFlight())
		}
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// worker executes flushed batches until the dispatcher closes the stream.
func (s *Server) worker() {
	defer s.wg.Done()
	for batch := range s.batches {
		s.process(batch, true)
	}
}

// process serves one same-model batch: place a lease on the virtual
// timeline, execute the compiled plan at the placed offset, and complete
// every batch member. Each member carries its own virtual arrival stamp
// (pinned by trace replay, or the completion frontier for live traffic);
// the lease starts no earlier than the latest member's arrival.
func (s *Server) process(batch []*item, execute bool) {
	live := batch[:0]
	for _, it := range batch {
		if err := it.ctx.Err(); err != nil {
			it.finish(nil, err)
			continue
		}
		live = append(live, it)
	}
	batch = live
	if len(batch) == 0 {
		return
	}
	lm, err := s.registry.Get(batch[0].req.Model)
	if err != nil {
		for _, it := range batch {
			it.finish(nil, err)
		}
		return
	}
	s.cfg.Metrics.Observe("serve.batch_size", float64(len(batch)))

	frontier := s.sched.Arrival()
	arrivalOf := func(it *item) int64 {
		if it.arrival > 0 {
			return it.arrival
		}
		return frontier
	}
	solo := lm.Solo.DurationCycles()

	// Place the batch, dropping virtual-deadline violators and canceled
	// requests until the placement is stable (each drop shortens the
	// window, which can only help the survivors). batchArrival (the
	// latest member's stamp — the earliest cycle the whole batch exists)
	// survives the loop for stage attribution.
	var lease Lease
	var batchArrival int64
	for {
		live := batch[:0]
		for _, it := range batch {
			if err := it.ctx.Err(); err != nil {
				it.finish(nil, err)
				continue
			}
			live = append(live, it)
		}
		batch = live
		if len(batch) == 0 {
			return
		}
		arrival := arrivalOf(batch[0])
		for _, it := range batch[1:] {
			if a := arrivalOf(it); a > arrival {
				arrival = a
			}
		}
		batchArrival = arrival
		dur := solo + lm.InitInterval*int64(len(batch)-1)
		lease, err = s.sched.Place(arrival, lm.Demand, dur)
		if err != nil {
			for _, it := range batch {
				it.finish(nil, err)
			}
			return
		}
		kept := batch[:0]
		for i, it := range batch {
			endCycle := lease.Start + solo + lm.InitInterval*int64(i)
			if d := it.req.DeadlineCycles; d > 0 && endCycle-arrivalOf(it) > d {
				it.finish(nil, fmt.Errorf("%w: completion %d cycles after arrival exceeds deadline %d",
					ErrDeadlineViolation, endCycle-arrivalOf(it), d))
				continue
			}
			kept = append(kept, it)
		}
		if len(kept) == len(batch) {
			break
		}
		batch = kept
		s.sched.Cancel(lease)
		if len(batch) == 0 {
			return
		}
	}

	// Execute the precompiled plan at the placed virtual offset. The
	// report lands on the shared timeline (and the shared trace, when
	// configured); profile-store hits make warm executions cheap. The
	// replay harness skips re-execution: the schedule is already
	// profiled, and latency is lease arithmetic either way.
	rep := lm.Solo
	if execute {
		rep, err = runtime.ExecuteAt(lm.Graph, s.runtimeConfig(lm), lease.Start)
		if err != nil {
			s.sched.Cancel(lease)
			for _, it := range batch {
				it.finish(nil, fmt.Errorf("serve: execute %q: %w", lm.Spec.Name, err))
			}
			return
		}
	}

	// One allocation holds the whole batch's responses.
	resps := make([]InferResponse, len(batch))
	for i, it := range batch {
		arrival := arrivalOf(it)
		endCycle := lease.Start + solo + lm.InitInterval*int64(i)
		resp := &resps[i]
		*resp = InferResponse{
			Model:         lm.Spec.Name,
			ArrivalCycle:  arrival,
			StartCycle:    lease.Start,
			EndCycle:      endCycle,
			QueueCycles:   lease.Start - arrival,
			LatencyCycles: endCycle - arrival,
			LatencyMillis: float64(endCycle-arrival) / (lm.rt.GPU.ClockGHz * 1e9) * 1e3,
			// The three stages partition LatencyCycles exactly: the
			// member waits for its batch to complete (batchArrival is
			// the max member stamp), the batch waits for its lease, the
			// lease runs the member at its pipelined offset.
			BatchWaitCycles: batchArrival - arrival,
			LeaseWaitCycles: lease.Start - batchArrival,
			ExecuteCycles:   endCycle - lease.Start,
			BatchSize:       len(batch),
			BatchIndex:      i,
			SLOClass:        lm.SLO.Name,
			RequestID:       it.id,
			GPUBusy:         rep.GPUBusy,
			PIMBusy:         rep.PIMBusy,
		}
		if lm.SLOTarget > 0 && resp.LatencyCycles > lm.SLOTarget {
			resp.SLOMiss = true
			s.cfg.Metrics.Inc("serve.slo_miss")
			s.cfg.Metrics.Inc(obs.LabeledKey("serve.slo_miss", "class", lm.SLO.Name))
		}
		s.cfg.Metrics.Observe("serve.latency_cycles", float64(resp.LatencyCycles))
		s.cfg.Metrics.Observe("serve.queue_cycles", float64(resp.QueueCycles))
	}
	if s.cert != nil {
		// Record before Release so the lease's frontier stamp never
		// precedes the lease itself in the certificate.
		s.cert.batch(lease, lm, resps)
	}
	s.sched.Release(lease)
	// Complete the members only after the release, so a caller holding
	// its response also sees the frontier its lease advanced.
	for i, it := range batch {
		it.finish(&resps[i], nil)
	}
	if obs.Enabled(slog.LevelDebug) {
		obs.L().Debug("serve: batch served",
			"model", lm.Spec.Name, "batch", len(batch),
			"start", lease.Start, "end", lease.End)
	}
}

// runtimeConfig derives the execution configuration for one request:
// the model's compiled configuration plus the server's shared profile
// store and observability sinks.
func (s *Server) runtimeConfig(lm *LoadedModel) runtime.Config {
	rt := lm.rt
	rt.Profiles = s.cfg.Profiles
	rt.Trace = s.cfg.Trace
	// Per-node spans land at the lease offset on the shared timeline;
	// per-command channel detail would re-simulate every offloaded node
	// of every request and grow the trace without bound.
	rt.TraceNodesOnly = true
	rt.Metrics = s.cfg.Metrics
	return rt
}
