package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"pimflow/internal/obs"
	"pimflow/internal/profcache"
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
	// MaxBatch is the default largest same-model coalesced batch
	// (default 1, no batching); ModelSpec.MaxBatch overrides per model.
	MaxBatch int
	// BatchWindow is the default wall-clock coalescing window: after the
	// first request opens a batch the dispatcher holds it open this long
	// for same-model arrivals (default 0: coalesce only requests already
	// queued). ModelSpec.BatchWindowMillis overrides per model.
	BatchWindow time.Duration
	// Profiles optionally shares a profile store with other components;
	// nil gets a private one.
	Profiles *profcache.Store
	// Metrics receives the serving counters, gauges, and histograms and
	// backs the fleet's GET /v1/machines/{name}/metrics; nil gets a
	// private registry.
	Metrics *obs.Metrics
	// Trace, when non-nil, collects wall-clock serving spans plus, for
	// every served batch, its model's solo schedule drawn at the lease
	// offset (per-node spans only: the per-command channel detail of a
	// solo traced run would grow one shared trace without bound).
	Trace *obs.Trace
	// RequestLog, when positive, turns on request-lifecycle tracking:
	// every request gets an ID, a per-stage span record kept in a ring of
	// this size (served by GET /v1/machines/{name}/debug/requests),
	// labeled stage histograms with request-ID exemplars, and a request
	// lane in Trace. Zero (the default) keeps the request path free of
	// any tracking cost.
	RequestLog int
	// Certify records the schedule certificate — every successful lease,
	// its member requests, and each release's frontier stamp — for
	// verify.Schedule's SR-* checks (see Server.Certificate). The record
	// grows with traffic, so it is meant for bounded runs: trace replay,
	// tests, and pimflow-fleet -verify.
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
	if c.MaxBatch <= 0 {
		c.MaxBatch = 1
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
		MaxBatch:    c.MaxBatch,
		BatchWindow: c.BatchWindow,
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
	// stamp; zero stamps it from the completion frontier when the request
	// is admitted. Trace replay pins every arrival (InferBatch, driven by
	// a VirtualQueue). The fleet pins the live requests it routes (Infer)
	// on one fleet-wide timeline: a plain request at the fleet's
	// completion frontier, and a graph hop at the cycle its route
	// reached, so a hop arrives no earlier than the hop whose output it
	// reads.
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
	// GPUBusy and PIMBusy echo the model's solo schedule's busy cycles.
	GPUBusy int64 `json:"gpuBusyCycles"`
	PIMBusy int64 `json:"pimBusyCycles"`
}

// Server is the concurrent inference service: registry in front, bounded
// admission queue, continuous per-model batcher serving each batch it
// flushes, and the virtual-time resource scheduler.
type Server struct {
	cfg       Config
	registry  *Registry
	queue     *queue
	sched     *Scheduler
	lifecycle *Lifecycle    // nil when Config.RequestLog is zero
	cert      *certRecorder // nil unless Config.Certify
	draining  atomic.Bool

	// The request path's metric series, resolved once, with
	// serve.slo_miss{class=…} for each SLO class.
	requests, responses, sloMiss *obs.Counter
	batchSize, latency, queueing *obs.Histogram
	sloMissByClass               map[string]*obs.Counter

	wg sync.WaitGroup
}

// NewServer builds and starts a server (its dispatcher runs until
// Shutdown).
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
		lifecycle: newLifecycle(cfg.RequestLog, cfg.Metrics, cfg.Trace),
		requests:  cfg.Metrics.CounterOf("serve.requests"),
		responses: cfg.Metrics.CounterOf("serve.responses"),
		sloMiss:   cfg.Metrics.CounterOf("serve.slo_miss"),
		batchSize: cfg.Metrics.HistogramOf("serve.batch_size"),
		latency:   cfg.Metrics.HistogramOf("serve.latency_cycles"),
		queueing:  cfg.Metrics.HistogramOf("serve.queue_cycles"),
	}
	s.sloMissByClass = make(map[string]*obs.Counter, len(sloClasses))
	for _, c := range sloClasses {
		s.sloMissByClass[c.Name] = cfg.Metrics.CounterOf(obs.LabeledKey("serve.slo_miss", "class", c.Name))
	}
	if cfg.Certify {
		s.cert = newCertRecorder()
		s.sched.onRelease = s.cert.frontier
	}
	s.wg.Add(1)
	go s.dispatcher()
	return s, nil
}

// Registry exposes the model registry (Load/Unload/List).
func (s *Server) Registry() *Registry { return s.registry }

// Scheduler exposes the resource scheduler (read-mostly; the fleet's
// router and machine listing read it).
func (s *Server) Scheduler() *Scheduler { return s.sched }

// Lifecycle returns the request-lifecycle tracker (nil when
// Config.RequestLog is zero).
func (s *Server) Lifecycle() *Lifecycle { return s.lifecycle }

// QueueDepth returns the number of requests waiting in the admission
// queue.
func (s *Server) QueueDepth() int { return s.queue.depth() }

// Metrics returns the server's metrics registry.
func (s *Server) Metrics() *obs.Metrics { return s.cfg.Metrics }

// Machine returns the simulated machine the server schedules over.
func (s *Server) Machine() Machine { return s.cfg.Machine }

// Draining reports whether shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

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
	s.requests.Inc()
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

// initItem stamps one request's item with its virtual arrival (the
// pinned one, else the completion frontier now), the shed-policy inputs
// (service estimate and effective deadline) and, when lifecycle tracking
// is on, its ID, SLO class and submission wall stamp.
func (s *Server) initItem(ctx context.Context, it *item, req InferRequest, lm *LoadedModel) {
	it.req = req
	it.ctx = ctx
	it.service = lm.Solo.DurationCycles()
	it.slo = effectiveDeadline(req.DeadlineCycles, lm.SLOTarget)
	it.arrival = req.ArrivalCycle
	if it.arrival == 0 {
		it.arrival = s.sched.Arrival()
	}
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
		p.s.responses.Inc()
		return res.resp, nil
	case <-ctx.Done():
		// The dispatcher may still serve the item; its reply lands in the
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

// BatchOptions parameterizes InferBatch. Callers outside this package
// pass the zero value.
type BatchOptions struct {
	// buffers is per-call storage a VirtualQueue reuses from batch to
	// batch; nil gives the call its own.
	buffers *batchBuffers
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
// enforcement, SLO accounting, the trace, and the serving metrics are
// exactly the live path's; the runtime.*/pim.* series a live batch
// publishes are not, so a replay's cost stays lease arithmetic.
// The outcomes come back in request order; no channel is involved, as
// process completes every member before it returns. Each call from
// outside this package gets its own storage, so the outcomes and their
// responses are the caller's to keep.
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
	n := len(reqs)
	s.requests.Add(int64(n))
	buf := opts.buffers
	if buf == nil {
		buf = new(batchBuffers)
	}
	items, batch := resize(buf.items, n), resize(buf.ptrs, n)
	clear(items)
	for i, r := range reqs {
		s.initItem(ctx, &items[i], r, lm)
		batch[i] = &items[i]
	}
	// process compacts batch in place as members drop out; items keeps
	// request order for the read-back.
	buf.resps = s.process(batch, lm, false, buf.resps)
	out := resize(buf.outs, n)
	for i := range items {
		res := items[i].out
		out[i] = InferOutcome{Resp: res.resp, Err: res.err}
		if res.err != nil {
			s.countError(res.err)
		} else {
			s.responses.Inc()
		}
	}
	buf.items, buf.ptrs, buf.outs = items, batch, out
	return out, nil
}

// batchBuffers is InferBatch's per-call storage: the members' items, the
// pointers process compacts, the outcomes, and the responses. A
// VirtualQueue keeps one set for every batch it flushes, so what its
// driver callback receives is overwritten by the next flush.
type batchBuffers struct {
	items []item
	ptrs  []*item
	outs  []InferOutcome
	resps []InferResponse
}

// resize returns s with length n, over its own array when that holds n
// elements (the contents are stale) and a new zeroed one otherwise.
func resize[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
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
// immediately — the window never extends the drain), the dispatcher
// exits. It returns the context's error if draining outlives it.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.draining.Swap(true) {
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

// dropCanceled finishes the members whose context has ended and
// compacts the rest to the front of batch, in order.
func dropCanceled(batch []*item) []*item {
	live := batch[:0]
	for _, it := range batch {
		if err := it.ctx.Err(); err != nil {
			it.finish(nil, err)
			continue
		}
		live = append(live, it)
	}
	return live
}

// process serves one same-model batch of lm, the model its caller
// resolved: place a lease on the virtual timeline, charge it lm's solo
// schedule, and complete every batch member. Each member carries its own
// virtual arrival stamp (pinned by the request, else the completion
// frontier at admission); the lease starts no earlier than the latest
// member's arrival. A live batch, one the dispatcher formed, also
// applies lm's load-time metrics record to the registry as the
// execution the lease stands for. The members' responses are written
// into resps, grown to the batch, and process returns that storage for
// the caller to reuse (nil: fresh storage).
func (s *Server) process(batch []*item, lm *LoadedModel, live bool, resps []InferResponse) []InferResponse {
	batch = dropCanceled(batch)
	if len(batch) == 0 {
		return resps
	}
	s.batchSize.Observe(float64(len(batch)))
	solo := lm.Solo.DurationCycles()

	// Place the batch, dropping virtual-deadline violators and canceled
	// requests until the placement is stable (each drop shortens the
	// window, which can only help the survivors). batchArrival (the
	// latest member's stamp — the earliest cycle the whole batch exists)
	// survives the loop for stage attribution.
	var lease Lease
	var batchArrival int64
	var err error
	for {
		batch = dropCanceled(batch)
		if len(batch) == 0 {
			return resps
		}
		arrival := batch[0].arrival
		for _, it := range batch[1:] {
			arrival = max(arrival, it.arrival)
		}
		batchArrival = arrival
		dur := solo + lm.InitInterval*int64(len(batch)-1)
		lease, err = s.sched.Place(arrival, lm.Demand, dur)
		if err != nil {
			for _, it := range batch {
				it.finish(nil, err)
			}
			return resps
		}
		kept := batch[:0]
		for i, it := range batch {
			endCycle := lease.Start + solo + lm.InitInterval*int64(i)
			if d := it.req.DeadlineCycles; d > 0 && endCycle-it.arrival > d {
				it.finish(nil, fmt.Errorf("%w: completion %d cycles after arrival exceeds deadline %d",
					ErrDeadlineViolation, endCycle-it.arrival, d))
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
			return resps
		}
	}

	// The schedule is deterministic and independent of its offset, so
	// the lease runs exactly lm's solo report moved to lease.Start: draw
	// that on the shared trace and, for a live batch, publish its metrics
	// record.
	lm.Solo.Draw(s.cfg.Trace, lease.Start)
	if live {
		lm.record.Apply(s.cfg.Metrics, lease.Start)
	}

	// One slice holds the whole batch's responses.
	resps = resize(resps, len(batch))
	var classMiss *obs.Counter
	for i, it := range batch {
		arrival := it.arrival
		endCycle := lease.Start + solo + lm.InitInterval*int64(i)
		resp := &resps[i]
		*resp = InferResponse{
			Model:         lm.Spec.Name,
			ArrivalCycle:  arrival,
			StartCycle:    lease.Start,
			EndCycle:      endCycle,
			QueueCycles:   lease.Start - arrival,
			LatencyCycles: endCycle - arrival,
			LatencyMillis: float64(endCycle-arrival) / (lm.Opts.GPU.ClockGHz * 1e9) * 1e3,
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
			GPUBusy:         lm.Solo.GPUBusy,
			PIMBusy:         lm.Solo.PIMBusy,
		}
		if lm.SLOTarget > 0 && resp.LatencyCycles > lm.SLOTarget {
			resp.SLOMiss = true
			if classMiss == nil {
				classMiss = s.sloMissByClass[lm.SLO.Name]
			}
			s.sloMiss.Inc()
			classMiss.Inc()
		}
		s.latency.Observe(float64(resp.LatencyCycles))
		s.queueing.Observe(float64(resp.QueueCycles))
	}
	if s.cert != nil {
		// Record before Release so the lease's frontier stamp never
		// precedes the lease itself in the certificate.
		s.cert.batch(lease, lm, live, resps)
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
	return resps
}
