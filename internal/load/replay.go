package load

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
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

// Record folds one request's outcome into the report: a response (err
// nil) counts as served and feeds c and its SLO class; an error counts
// as shed (serve.ErrShed), rejected (serve.ErrQueueFull), violated
// (serve.ErrDeadlineViolation) or otherwise as an error.
func (r *Report) Record(c *Collector, resp *serve.InferResponse, err error) {
	switch {
	case err == nil:
		r.Served++
		c.Observe(resp)
		cs := r.Classes[resp.SLOClass]
		cs.Served++
		if resp.SLOMiss {
			cs.SLOMiss++
			r.SLOMiss++
		}
		r.Classes[resp.SLOClass] = cs
	case errors.Is(err, serve.ErrShed):
		r.Shed++
	case errors.Is(err, serve.ErrQueueFull):
		r.Rejected++
	case errors.Is(err, serve.ErrDeadlineViolation):
		r.Violated++
	default:
		r.Errors++
	}
}

// Replay drives the trace through the server deterministically on one
// goroutine: a serve.VirtualQueue performs admission and continuous
// batching in virtual time and hands each formed batch to
// Server.InferBatch, which runs the live path's placement, deadline, and
// SLO machinery synchronously. Identical scenario, identical report
// (modulo wall-clock fields).
//
//pimflow:deterministic
func Replay(srv *serve.Server, sc Scenario, reqs []Request) (*Report, error) {
	sc = sc.withDefaults()
	adm, err := serve.ParseAdmissionPolicy(sc.Admission)
	if err != nil {
		return nil, err
	}
	known := make(map[string]bool, len(sc.Models))
	for _, m := range sc.Models {
		if _, err := srv.Registry().Get(m.Name); err != nil {
			return nil, err
		}
		known[m.Name] = true
	}
	rep := &Report{Scenario: sc.Name, Requests: len(reqs), Classes: map[string]ClassStats{}}
	stats := NewCollector(sc, len(reqs))
	q, err := serve.NewVirtualQueue(srv, sc.QueueDepth, adm,
		func(_ struct{}, resp *serve.InferResponse, err error) { rep.Record(stats, resp, err) })
	if err != nil {
		return nil, err
	}
	started := time.Now()
	for _, r := range reqs {
		if !known[r.Model] {
			return nil, fmt.Errorf("load: trace names unloaded model %q", r.Model)
		}
		if err := q.Admit(r.Cycle, r.Model, struct{}{}); err != nil {
			return nil, err
		}
	}
	for _, open := q.Head(); open; _, open = q.Head() {
		if err := q.FlushHead(); err != nil {
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

// rankOf is the nearest-rank index of the q-quantile among n sorted
// values (n > 0).
func rankOf(n int, q float64) int {
	return min(max(int(math.Ceil(q*float64(n)))-1, 0), n-1)
}

// ranks returns the nearest-rank p50, p99 and p999 of vals and their
// max, or zeros when vals is empty. It reorders vals in place instead of
// sorting them: it selects the p99 rank over all values, then the p999
// rank and the max within the tail from it, then the p50 rank within
// the head below it.
func ranks(vals []int64) (p50, p99, p999, top int64) {
	n := len(vals)
	if n == 0 {
		return 0, 0, 0, 0
	}
	i50, i99, i999 := rankOf(n, 0.50), rankOf(n, 0.99), rankOf(n, 0.999)
	p99 = selectRank(vals, i99)
	p999 = selectRank(vals[i99:], i999-i99)
	top = slices.Max(vals[i999:])
	p50 = p99
	if i50 < i99 {
		p50 = selectRank(vals[:i99], i50)
	}
	return p50, p99, p999, top
}

// selectRank reorders vals so that vals[k] holds the value of rank k in
// ascending order, with no greater value before it and no smaller one
// after it, and returns that value. It is quickselect with a three-way
// partition, so a column of few distinct values takes a pass or two, and
// with pseudo-random pivots from a fixed seed, so a ramp of latencies (a
// burst building and draining) stays linear too.
func selectRank(vals []int64, k int) int64 {
	lo, hi := 0, len(vals)
	x := uint64(1)
	for hi-lo > 1 {
		x = x*6364136223846793005 + 1442695040888963407
		p := vals[lo+int((x>>33)%uint64(hi-lo))]
		// vals[lo:lt] < p, vals[lt:i] == p, vals[gt:hi] > p.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch v := vals[i]; {
			case v < p:
				vals[lt], vals[i] = v, vals[lt]
				lt++
				i++
			case v > p:
				gt--
				vals[gt], vals[i] = v, vals[gt]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return p
		}
	}
	return vals[k]
}

// attributedAt returns the stage split of the request at rank i, whose
// latency is v (same nearest-rank convention as the report's
// percentiles, so its LatencyCycles equals the reported percentile and
// its stages sum to it exactly). Requests rank by (latency, request ID,
// arrival order): the requests below v are counted, and only the
// requests tied at v are ordered to pick the one the rank lands on.
func attributedAt(recs []latRec, v int64, i int) AttributedRequest {
	below := 0
	var ties []int // positions in recs, in arrival order
	for j := range recs {
		if recs[j].lat < v {
			below++
		} else if recs[j].lat == v {
			ties = append(ties, j)
		}
	}
	slices.SortStableFunc(ties, func(a, b int) int { return strings.Compare(recs[a].id, recs[b].id) })
	r := recs[ties[i-below]]
	return AttributedRequest{RequestID: r.id, Model: r.model, LatencyCycles: r.lat, Stages: r.stages}
}

// stageStats computes each stage's independent distribution.
//
//pimflow:deterministic
func stageStats(recs []latRec) map[string]StageStats {
	names := [...]string{"queue", "batch_window", "lease_wait", "execute"}
	n := len(recs)
	buf := make([]int64, len(names)*n)
	for i, r := range recs {
		buf[i], buf[n+i], buf[2*n+i], buf[3*n+i] = r.stages.Queue, r.stages.BatchWait, r.stages.LeaseWait, r.stages.Execute
	}
	out := make(map[string]StageStats, len(names))
	for c, name := range names {
		vals := buf[c*n : (c+1)*n]
		var sum int64
		for _, v := range vals {
			sum += v
		}
		var st StageStats
		st.P50, st.P99, st.P999, st.Max = ranks(vals)
		st.Mean = float64(sum) / float64(n)
		out[name] = st
	}
	return out
}

// finishReport folds the collected latencies into percentiles, the
// per-stage distributions, and the attributed percentile splits. It
// selects ranks among the latencies, not the records: only the three
// attributed ranks need a record, and attributedAt finds each one among
// its latency's ties.
//
//pimflow:deterministic
func finishReport(rep *Report, recs []latRec, classLat map[string][]int64, batchSum, makespan int64) {
	lat := make([]int64, len(recs))
	var sum int64
	for i := range recs {
		lat[i] = recs[i].lat
		sum += lat[i]
	}
	rep.P50, rep.P99, rep.P999, rep.MaxLatency = ranks(lat)
	if n := len(recs); n > 0 {
		rep.MeanLatency = float64(sum) / float64(n)
		rep.MeanBatch = float64(batchSum) / float64(n)
		rep.Stages = stageStats(recs)
		rep.Attributed = &Attributed{
			P50:  attributedAt(recs, rep.P50, rankOf(n, 0.50)),
			P99:  attributedAt(recs, rep.P99, rankOf(n, 0.99)),
			P999: attributedAt(recs, rep.P999, rankOf(n, 0.999)),
		}
	}
	rep.MakespanCycles = makespan
	for _, cls := range sortedModels(classLat) {
		cs := rep.Classes[cls]
		cs.P50, cs.P99, cs.P999, cs.MaxCycle = ranks(classLat[cls])
		rep.Classes[cls] = cs
	}
	if rep.WallSeconds > 0 {
		rep.ReqPerSec = float64(rep.Served) / rep.WallSeconds
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
	// Trace, when non-nil, collects the replay's simulated-timeline
	// events (each batch's node spans at its lease offset) and request
	// lanes (which require RequestLog > 0).
	Trace *obs.Trace
	// RequestLog sizes the server's lifecycle ring: requests get IDs
	// (threaded into the report's attributed percentiles and the trace's
	// request lanes). Zero keeps lifecycle tracking off.
	RequestLog int
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
