package load

import (
	"cmp"
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pimflow/internal/obs"
	"pimflow/internal/serve"
	"pimflow/internal/verify"
)

// ClassStats is the per-SLO-class slice of a replay report.
type ClassStats struct {
	Served   int   `json:"served"`
	SLOMiss  int   `json:"sloMiss"`
	Target   int64 `json:"targetCycles,omitempty"`
	P50      int64 `json:"p50Cycles"`
	P99      int64 `json:"p99Cycles"`
	P999     int64 `json:"p999Cycles"`
	MaxCycle int64 `json:"maxCycles"`
}

// Report summarizes one trace replay. All latency figures are virtual
// cycles (completion minus arrival on the simulated timeline); only
// WallSeconds and ReqPerSec touch the wall clock, and the determinism
// tests exclude them.
type Report struct {
	Scenario string `json:"scenario"`
	Requests int    `json:"requests"`
	Served   int    `json:"served"`
	Shed     int    `json:"shed"`
	Rejected int    `json:"rejected"`
	Violated int    `json:"violated"`
	Errors   int    `json:"errors"`
	SLOMiss  int    `json:"sloMiss"`

	P50            int64   `json:"p50Cycles"`
	P99            int64   `json:"p99Cycles"`
	P999           int64   `json:"p999Cycles"`
	MaxLatency     int64   `json:"maxCycles"`
	MeanLatency    float64 `json:"meanCycles"`
	MeanBatch      float64 `json:"meanBatch"`
	MakespanCycles int64   `json:"makespanCycles"`

	// Stages holds independent per-stage latency distributions across the
	// served requests; Attributed holds the exact stage split of the
	// requests at the p50/p99/p999 ranks, whose stages sum to the
	// corresponding end-to-end percentile by construction.
	Stages     map[string]StageStats `json:"stages,omitempty"`
	Attributed *Attributed           `json:"attributed,omitempty"`

	Classes map[string]ClassStats `json:"classes,omitempty"`

	// Certified reports a schedule certificate checked clean against the
	// SR-* rules (set when the server ran with serve.Config.Certify);
	// CertifiedLeases is the number of leases the certificate covered.
	Certified       bool `json:"certified,omitempty"`
	CertifiedLeases int  `json:"certifiedLeases,omitempty"`

	WallSeconds float64 `json:"wallSeconds"`
	ReqPerSec   float64 `json:"reqPerSec"`
}

// StageStats is one pipeline stage's latency distribution over the
// served requests (virtual cycles).
type StageStats struct {
	P50  int64   `json:"p50Cycles"`
	P99  int64   `json:"p99Cycles"`
	P999 int64   `json:"p999Cycles"`
	Max  int64   `json:"maxCycles"`
	Mean float64 `json:"meanCycles"`
}

// AttributedRequest is the stage decomposition of one concrete request:
// the request whose end-to-end latency sits at a percentile rank. Its
// stages partition LatencyCycles exactly, so "where did the p99 go" has
// a sum-consistent answer (independent per-stage percentiles do not add
// up — they belong to different requests).
type AttributedRequest struct {
	RequestID     string            `json:"requestId,omitempty"`
	Model         string            `json:"model"`
	LatencyCycles int64             `json:"latencyCycles"`
	Stages        serve.StageCycles `json:"stages"`
}

// Attributed carries the stage splits at the standard percentile ranks.
type Attributed struct {
	P50  AttributedRequest `json:"p50"`
	P99  AttributedRequest `json:"p99"`
	P999 AttributedRequest `json:"p999"`
}

// latRec is one served request's latency plus its attribution payload.
type latRec struct {
	lat    int64
	id     string
	model  string
	stages serve.StageCycles
}

// sortedModels returns the map's keys in sorted order, so callers can
// iterate string-keyed maps deterministically.
//
//pimflow:deterministic
func sortedModels[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	//lint:ignore LT-MAP-ORDER keys are sorted before the caller iterates them
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func recOf(resp *serve.InferResponse) latRec {
	return latRec{
		lat:   resp.LatencyCycles,
		id:    resp.RequestID,
		model: resp.Model,
		stages: serve.StageCycles{
			BatchWait: resp.BatchWaitCycles,
			LeaseWait: resp.LeaseWaitCycles,
			Execute:   resp.ExecuteCycles,
		},
	}
}

// percentile returns the q-quantile of sorted latencies (nearest-rank).
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// LoadModels loads every scenario model into the server's registry.
func LoadModels(srv *serve.Server, sc Scenario) error {
	for _, m := range sc.Models {
		spec := serve.ModelSpec{
			Name: m.Name, Model: m.Model, Policy: m.Policy,
			TotalChannels: m.TotalChannels, PIMChannels: m.PIMChannels,
			MaxBatch: m.MaxBatch, BatchWindowCycles: m.WindowCycles, SLO: m.SLO,
		}
		if _, err := srv.Registry().Load(spec); err != nil {
			return fmt.Errorf("load: model %q: %w", m.Name, err)
		}
	}
	return nil
}

// pendingReq is one admitted, not-yet-flushed request in the replay
// driver's virtual queue.
type pendingReq struct {
	req      Request
	service  int64 // warm solo estimate, for shed prediction
	deadline int64 // SLO target, 0 best-effort
	shed     bool
}

// virtualBatch is one model's open batch in the replay driver.
type virtualBatch struct {
	items      []*pendingReq
	flushCycle int64 // 0: flush immediately (no virtual window)
}

// endHeap is a min-heap of in-service completion cycles: requests whose
// batches are placed but whose completions are still in the future count
// against the virtual queue depth.
type endHeap []int64

func (h endHeap) Len() int           { return len(h) }
func (h endHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h endHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *endHeap) Push(x any)        { *h = append(*h, x.(int64)) }

func (h *endHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func (h endHeap) peek() (int64, bool) {
	if len(h) == 0 {
		return 0, false
	}
	return h[0], true
}

// Replay drives the trace through the server deterministically: the
// driver itself performs admission and continuous batching in virtual
// time on a single goroutine — occupancy is open (unflushed) requests
// plus placed requests whose completions are still in the simulated
// future — and hands each formed batch to Server.InferBatch, which runs
// the live path's placement, deadline, and SLO machinery synchronously.
// Identical scenario, identical report (modulo wall-clock fields).
//
//pimflow:deterministic
func Replay(srv *serve.Server, sc Scenario, reqs []Request) (*Report, error) {
	sc = sc.withDefaults()
	shed := sc.Admission == "shed-oldest" || sc.Admission == "shed"
	if !shed && sc.Admission != "reject" {
		return nil, fmt.Errorf("load: replay admission %q (open-loop replay supports reject and shed-oldest)", sc.Admission)
	}

	type modelInfo struct {
		service  int64
		deadline int64
		maxBatch int
		window   int64
	}
	models := map[string]modelInfo{}
	for _, m := range sc.Models {
		lm, err := srv.Registry().Get(m.Name)
		if err != nil {
			return nil, err
		}
		models[m.Name] = modelInfo{
			service:  lm.Solo.DurationCycles(),
			deadline: lm.SLOTarget,
			maxBatch: lm.Batch.MaxBatch,
			window:   lm.Batch.WindowCycles,
		}
	}

	rep := &Report{Scenario: sc.Name, Requests: len(reqs), Classes: map[string]ClassStats{}}
	started := time.Now()
	var (
		open     = map[string]*virtualBatch{} // per-model open batch
		inFlight endHeap                      // completion cycles of placed work
		queued   int                          // unshed requests in open batches
		stats    = NewCollector(sc, len(reqs))
		order    []*pendingReq // openInOrder's buffer, reused per arrival
		cands    []serve.ShedCandidate
	)

	flush := func(model string, vb *virtualBatch) error {
		delete(open, model)
		var batch []serve.InferRequest
		for _, p := range vb.items {
			if p.shed {
				continue
			}
			batch = append(batch, serve.InferRequest{Model: model, ArrivalCycle: p.req.Cycle})
		}
		queued -= len(batch)
		if len(batch) == 0 {
			return nil
		}
		outs, err := srv.InferBatch(context.Background(), batch, serve.BatchOptions{Execute: sc.Execute})
		if err != nil {
			return err
		}
		for _, o := range outs {
			switch {
			case o.Err == nil:
				rep.Served++
				stats.Observe(o.Resp)
				cs := rep.Classes[o.Resp.SLOClass]
				cs.Served++
				if o.Resp.SLOMiss {
					cs.SLOMiss++
					rep.SLOMiss++
				}
				rep.Classes[o.Resp.SLOClass] = cs
				heap.Push(&inFlight, o.Resp.EndCycle)
			case errors.Is(o.Err, serve.ErrDeadlineViolation):
				rep.Violated++
			default:
				rep.Errors++
			}
		}
		return nil
	}

	// flushDue flushes, in deterministic (flushCycle, model) order, every
	// open batch whose virtual window the clock has passed. Models are
	// visited in sorted order and the minimum is strict, so ties resolve
	// by name without consulting map iteration order.
	flushDue := func(now int64) error {
		for {
			var dueModel string
			var due *virtualBatch
			for _, m := range sortedModels(open) {
				vb := open[m]
				if vb.flushCycle > 0 && now > vb.flushCycle &&
					(due == nil || vb.flushCycle < due.flushCycle) {
					dueModel, due = m, vb
				}
			}
			if due == nil {
				return nil
			}
			if err := flush(dueModel, due); err != nil {
				return err
			}
		}
	}

	// openInOrder lists the open (unflushed, unshed) requests oldest
	// first — the candidate order PickShedVictim expects. Collection
	// walks models in sorted order and the sort is stable, so requests
	// arriving on the same cycle from different models keep one fixed
	// order: an unstable sort over map-ordered candidates let equal-cycle
	// ties land on a different shed victim run to run. The returned
	// slice is reused by the next call.
	openInOrder := func() []*pendingReq {
		ps := order[:0]
		for _, m := range sortedModels(open) {
			for _, p := range open[m].items {
				if !p.shed {
					ps = append(ps, p)
				}
			}
		}
		slices.SortStableFunc(ps, func(a, b *pendingReq) int { return cmp.Compare(a.req.Cycle, b.req.Cycle) })
		order = ps
		return ps
	}

	for _, r := range reqs {
		mi, ok := models[r.Model]
		if !ok {
			return nil, fmt.Errorf("load: trace names unloaded model %q", r.Model)
		}
		if err := flushDue(r.Cycle); err != nil {
			return nil, err
		}
		// Completions at or before this arrival free queue slots.
		for {
			end, ok := inFlight.peek()
			if !ok || end > r.Cycle {
				break
			}
			heap.Pop(&inFlight)
		}
		p := &pendingReq{req: r, service: mi.service, deadline: mi.deadline}
		if len(inFlight)+queued >= sc.QueueDepth {
			if !shed {
				rep.Rejected++
				continue
			}
			// Shed the same victim the live queue would pick: open requests
			// oldest-first plus the incoming one.
			ps := openInOrder()
			cands = cands[:0]
			for _, q := range ps {
				cands = append(cands, serve.ShedCandidate{Deadline: q.deadline, Service: q.service})
			}
			cands = append(cands, serve.ShedCandidate{Deadline: p.deadline, Service: p.service})
			v := serve.PickShedVictim(cands)
			rep.Shed++
			if v == len(ps) {
				continue // the arrival itself was the most hopeless
			}
			ps[v].shed = true
			queued--
		}
		vb := open[r.Model]
		if vb == nil {
			vb = &virtualBatch{}
			if mi.maxBatch > 1 && mi.window > 0 {
				vb.flushCycle = r.Cycle + mi.window
			}
			open[r.Model] = vb
		}
		vb.items = append(vb.items, p)
		queued++
		full := 0
		for _, q := range vb.items {
			if !q.shed {
				full++
			}
		}
		if full >= mi.maxBatch || vb.flushCycle == 0 {
			if err := flush(r.Model, vb); err != nil {
				return nil, err
			}
		}
	}
	// Trailing batches flush in deterministic (headCycle, model) order:
	// sorted model visit plus strict minimum resolves ties by name.
	for {
		var m string
		var vb *virtualBatch
		for _, om := range sortedModels(open) {
			ovb := open[om]
			if vb == nil || headCycle(ovb) < headCycle(vb) {
				m, vb = om, ovb
			}
		}
		if vb == nil {
			break
		}
		if err := flush(m, vb); err != nil {
			return nil, err
		}
	}

	rep.WallSeconds = time.Since(started).Seconds()
	stats.Finish(rep)
	if err := certify(srv, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// certify checks the server's schedule certificate against the SR-*
// rules when the server is recording one (serve.Config.Certify). A
// replay whose schedule fails verification is not a result — it is a
// scheduler bug — so the whole run errors.
func certify(srv *serve.Server, rep *Report) error {
	if !srv.Certifying() {
		return nil
	}
	cert := srv.Certificate()
	if diags := verify.Schedule(cert); len(diags) > 0 {
		return fmt.Errorf("load: schedule certificate (%d leases, %d requests): %w",
			len(cert.Leases), len(cert.Requests), verify.AsError(diags))
	}
	rep.Certified = true
	rep.CertifiedLeases = len(cert.Leases)
	return nil
}

// attributedAt returns the stage split of the request at the q-quantile
// rank of the sorted records (same nearest-rank convention as
// percentile, so its LatencyCycles equals the reported percentile and
// its stages sum to it exactly).
func attributedAt(sorted []latRec, q float64) AttributedRequest {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	r := sorted[i]
	return AttributedRequest{RequestID: r.id, Model: r.model, LatencyCycles: r.lat, Stages: r.stages}
}

// stageStats computes each stage's independent distribution.
//
//pimflow:deterministic
func stageStats(recs []latRec) map[string]StageStats {
	cols := map[string][]int64{}
	for _, r := range recs {
		cols["queue"] = append(cols["queue"], r.stages.Queue)
		cols["batch_window"] = append(cols["batch_window"], r.stages.BatchWait)
		cols["lease_wait"] = append(cols["lease_wait"], r.stages.LeaseWait)
		cols["execute"] = append(cols["execute"], r.stages.Execute)
	}
	out := make(map[string]StageStats, len(cols))
	for _, name := range sortedModels(cols) {
		vals := cols[name]
		slices.Sort(vals)
		var sum int64
		for _, v := range vals {
			sum += v
		}
		out[name] = StageStats{
			P50:  percentile(vals, 0.50),
			P99:  percentile(vals, 0.99),
			P999: percentile(vals, 0.999),
			Max:  vals[len(vals)-1],
			Mean: float64(sum) / float64(len(vals)),
		}
	}
	return out
}

func headCycle(vb *virtualBatch) int64 {
	if len(vb.items) == 0 {
		return -1
	}
	return vb.items[0].req.Cycle
}

// finishReport folds the collected latencies into percentiles, the
// per-stage distributions, and the attributed percentile splits.
//
//pimflow:deterministic
func finishReport(rep *Report, recs []latRec, classLat map[string][]int64, batchSum, makespan int64) {
	// Ties break on request ID (deterministic in single-threaded replay),
	// then stably on append order.
	slices.SortStableFunc(recs, func(a, b latRec) int {
		if c := cmp.Compare(a.lat, b.lat); c != 0 {
			return c
		}
		return strings.Compare(a.id, b.id)
	})
	lat := make([]int64, len(recs))
	for i, r := range recs {
		lat[i] = r.lat
	}
	rep.P50 = percentile(lat, 0.50)
	rep.P99 = percentile(lat, 0.99)
	rep.P999 = percentile(lat, 0.999)
	if n := len(recs); n > 0 {
		rep.MaxLatency = lat[n-1]
		var sum int64
		for _, l := range lat {
			sum += l
		}
		rep.MeanLatency = float64(sum) / float64(n)
		rep.MeanBatch = float64(batchSum) / float64(n)
		rep.Stages = stageStats(recs)
		rep.Attributed = &Attributed{
			P50:  attributedAt(recs, 0.50),
			P99:  attributedAt(recs, 0.99),
			P999: attributedAt(recs, 0.999),
		}
	}
	rep.MakespanCycles = makespan
	for _, cls := range sortedModels(classLat) {
		ls := classLat[cls]
		slices.Sort(ls)
		cs := rep.Classes[cls]
		cs.P50 = percentile(ls, 0.50)
		cs.P99 = percentile(ls, 0.99)
		cs.P999 = percentile(ls, 0.999)
		cs.MaxCycle = ls[len(ls)-1]
		rep.Classes[cls] = cs
	}
	if rep.WallSeconds > 0 {
		rep.ReqPerSec = float64(rep.Served) / rep.WallSeconds
	}
}

// ReplayLive pushes the trace through the concurrent request path —
// Server.Submit/Wait from `clients` goroutines, the admission queue, the
// continuous batcher, and the worker pool — and reports the same virtual-
// time statistics. Batch composition depends on goroutine interleaving,
// so the report is NOT run-to-run deterministic; it exists for soak and
// race coverage and for wall-clock throughput measurement.
func ReplayLive(srv *serve.Server, sc Scenario, reqs []Request, clients int) (*Report, error) {
	sc = sc.withDefaults()
	if clients <= 0 {
		clients = 8
	}
	rep := &Report{Scenario: sc.Name, Requests: len(reqs), Classes: map[string]ClassStats{}}
	var (
		mu      sync.Mutex
		stats   = NewCollector(sc, len(reqs))
		next    atomic.Int64
		pending sync.WaitGroup
	)
	started := time.Now()
	var submitters sync.WaitGroup
	for c := 0; c < clients; c++ {
		submitters.Add(1)
		go func() {
			defer submitters.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				p, err := srv.Submit(context.Background(), serve.InferRequest{Model: r.Model, ArrivalCycle: r.Cycle})
				if err != nil {
					mu.Lock()
					countLiveError(rep, err)
					mu.Unlock()
					continue
				}
				pending.Add(1)
				go func() {
					defer pending.Done()
					resp, err := p.Wait(context.Background())
					mu.Lock()
					defer mu.Unlock()
					if err != nil {
						countLiveError(rep, err)
						return
					}
					rep.Served++
					stats.Observe(resp)
					cs := rep.Classes[resp.SLOClass]
					cs.Served++
					if resp.SLOMiss {
						cs.SLOMiss++
						rep.SLOMiss++
					}
					rep.Classes[resp.SLOClass] = cs
				}()
			}
		}()
	}
	submitters.Wait()
	// Every request is now queued or batched; close out held batches so
	// waiters finish without a shutdown.
	srv.FlushBatches()
	pending.Wait()
	rep.WallSeconds = time.Since(started).Seconds()
	stats.Finish(rep)
	return rep, nil
}

func countLiveError(rep *Report, err error) {
	switch {
	case errors.Is(err, serve.ErrShed):
		rep.Shed++
	case errors.Is(err, serve.ErrQueueFull):
		rep.Rejected++
	case errors.Is(err, serve.ErrDeadlineViolation):
		rep.Violated++
	default:
		rep.Errors++
	}
}

// Run is the one-call harness: build a server for the scenario, load its
// models, generate the trace, replay it deterministically, and shut the
// server down. The returned report is reproducible for a fixed scenario.
func Run(sc Scenario) (*Report, error) {
	return RunWithOptions(sc, RunOptions{})
}

// RunOptions extends Run with observability sinks.
type RunOptions struct {
	// Trace, when non-nil, collects the replay's simulated-timeline and
	// request-lane events (request lanes require RequestLog > 0).
	Trace *obs.Trace
	// RequestLog sizes the server's lifecycle ring: requests get IDs
	// (threaded into the report's attributed percentiles and the trace's
	// request lanes). Zero keeps lifecycle tracking off.
	RequestLog int
	// Execute forces plan execution during the replay (so the trace
	// carries the GPU/PIM timeline, not just lease arithmetic); the
	// scenario's Execute flag turns it on too.
	Execute bool
	// Certify turns on schedule-certificate recording: the replay fails
	// unless the executed schedule passes every SR-* rule, and the report
	// carries the certification summary (Certified, CertifiedLeases).
	Certify bool
}

// RunWithOptions is Run with a shared trace and request-lifecycle
// tracking. The report stays deterministic for a fixed scenario: IDs are
// minted sequentially on the single replay goroutine.
func RunWithOptions(sc Scenario, opts RunOptions) (*Report, error) {
	sc = sc.withDefaults()
	if opts.Execute {
		sc.Execute = true
	}
	adm, err := serve.ParseAdmissionPolicy(sc.Admission)
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(serve.Config{
		QueueDepth: sc.QueueDepth,
		Admission:  adm,
		Trace:      opts.Trace,
		RequestLog: opts.RequestLog,
		Certify:    opts.Certify,
	})
	if err != nil {
		return nil, err
	}
	defer srv.Shutdown(context.Background())
	if err := LoadModels(srv, sc); err != nil {
		return nil, err
	}
	reqs, err := Generate(sc)
	if err != nil {
		return nil, err
	}
	return Replay(srv, sc, reqs)
}
