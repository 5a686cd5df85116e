package search

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"pimflow/internal/codegen"
	"pimflow/internal/gpu"
	"pimflow/internal/graph"
	"pimflow/internal/lower"
	"pimflow/internal/obs"
	"pimflow/internal/profcache"
	"pimflow/internal/runtime"
	"pimflow/internal/transform"
)

// profiler measures layer execution times on the simulated hardware
// through a profcache.Store (the paper's metadata log): PIM trace
// simulations and GPU roofline evaluations are content-keyed, deduplicated
// while in flight, and — when Options.Profiles supplies a shared store —
// reused across Run calls and policies. It is safe for concurrent use:
// Run profiles independent layers in parallel. All returned times are in
// the GPU clock domain.
type profiler struct {
	opts  Options
	rt    runtime.Config
	store *profcache.Store

	// Key builders for rt, each with its device suffix formatted once.
	pimKeys  profcache.PIMKeys
	gpuKeys  profcache.GPUKeys
	pipeKeys pipeKeys

	// trace/metrics mirror Options.Trace/Metrics for probe
	// instrumentation. They are deliberately NOT left on rt: probe
	// Executes (pipeline profiling) must not draw on the simulated
	// timeline or double-count runtime metrics — only the final
	// compiled schedule does.
	trace   *obs.Trace
	metrics *obs.Metrics

	mu     sync.Mutex
	probes map[string]int64 // per-layer probe counts (metrics only)

	// pruned counts ratio grid points discarded by the analytic bound
	// without probing (see Run's branch-and-bound pruning).
	pruned atomic.Int64
}

func newProfiler(opts Options) *profiler {
	rt := opts.RuntimeConfig()
	store := rt.Profiles
	if store == nil {
		// Private per-Run store; also handed to the runtime config so the
		// pipeline profiler's Execute calls share it.
		store = profcache.New()
		rt.Profiles = store
	}
	rt.Trace, rt.Metrics = nil, nil
	p := &profiler{
		opts: opts, rt: rt, store: store, trace: opts.Trace, metrics: opts.Metrics,
		pimKeys:  profcache.NewPIMKeys(rt.PIM, rt.Codegen),
		gpuKeys:  profcache.NewGPUKeys(rt.GPU),
		pipeKeys: newPipeKeys(rt),
	}
	if p.metrics != nil {
		p.probes = map[string]int64{}
	}
	return p
}

// noopProbeDone is returned by beginProbe when instrumentation is
// disabled, so the hot profiling path costs two nil compares and no
// allocations.
var noopProbeDone = func(string, int64, error) {}

// beginProbe opens one profiling probe: a wall-clock trace span in the
// "probe" lane group plus the search probe counters. The returned func
// closes the span, annotating it with the profile-cache outcome ("" for
// probes that do not consult the store), the measured cycles, and any
// error. ratio < 0 means the probe has no MD-DP split ratio.
func (p *profiler) beginProbe(layer, kind string, ratio float64) func(outcome string, cycles int64, err error) {
	if p.trace == nil && p.metrics == nil {
		return noopProbeDone
	}
	p.metrics.Inc("search.probes")
	if p.probes != nil {
		p.mu.Lock()
		p.probes[layer]++
		p.mu.Unlock()
	}
	if !p.trace.Enabled() {
		return func(outcome string, _ int64, _ error) {
			if outcome != "" {
				p.metrics.Inc(obs.LabeledKey("search.probe_cache", "outcome", outcome))
			}
		}
	}
	args := map[string]any{"layer": layer, "kind": kind}
	if ratio >= 0 {
		args["gpuRatio"] = ratio
	}
	end := p.trace.Span("probe", layer+"/"+kind, "search.probe", args)
	return func(outcome string, cycles int64, err error) {
		if outcome != "" {
			p.metrics.Inc(obs.LabeledKey("search.probe_cache", "outcome", outcome))
		}
		extra := map[string]any{}
		if outcome != "" {
			extra["cache"] = outcome
		}
		if cycles > 0 {
			extra["cycles"] = cycles
		}
		if err != nil {
			extra["error"] = err.Error()
		}
		end(extra)
	}
}

// finishMetrics flushes the per-layer probe counts into the
// probes-per-layer histogram at the end of a Run.
func (p *profiler) finishMetrics() {
	if p.metrics == nil {
		return
	}
	p.mu.Lock()
	for _, c := range p.probes {
		p.metrics.Observe("search.probes_per_layer", float64(c))
	}
	p.probes = map[string]int64{}
	p.mu.Unlock()
}

// scalePIM converts PIM-clock cycles into the GPU clock domain the search
// compares and sums in.
func (p *profiler) scalePIM(cycles int64) int64 {
	if p.rt.GPU.ClockGHz == p.rt.PIM.ClockGHz {
		return cycles
	}
	return int64(math.Round(float64(cycles) * p.rt.PIMCycleScale()))
}

// errNeedsSim is what a probe asked to answer inline returns when its
// key is absent or still being computed elsewhere: answering it takes a
// simulation, which the pool runs (see walk).
var errNeedsSim = errors.New("search: probe needs a simulation")

// recall is an inline probe's store lookup: a completed entry, counted
// as a hit, or errNeedsSim, counted nowhere. A probe that is not inline
// recalls nothing here and asks DoObserved instead.
func (p *profiler) recall(key profcache.Key, inline bool) (profcache.Profile, error) {
	if !inline {
		return profcache.Profile{}, nil
	}
	if prof, ok := p.store.Lookup(key); ok {
		return prof, nil
	}
	return profcache.Profile{}, errNeedsSim
}

// pimWorkload times a PIM GEMM workload through the store, returning
// GPU-domain cycles. layer/kind/ratio label the probe for observability.
func (p *profiler) pimWorkload(w codegen.Workload, layer, kind string, ratio float64, inline bool) (int64, error) {
	key := p.pimKeys.Key(w)
	prof, err := p.recall(key, inline)
	if err != nil {
		return 0, err
	}
	done := p.beginProbe(layer, kind, ratio)
	out := profcache.OutcomeHit
	if !inline {
		prof, out, err = p.store.DoObserved(key, func() (profcache.Profile, error) {
			st, err := codegen.TimeWorkload(w, p.rt.PIM, p.rt.Codegen)
			if err != nil {
				return profcache.Profile{}, err
			}
			return profcache.Profile{Cycles: st.Cycles, Counts: st.Counts, PerChannelBusy: st.PerChannelBusy}, nil
		})
		if err != nil {
			done(out.String(), 0, err)
			return 0, err
		}
	}
	t := p.scalePIM(prof.Cycles)
	done(out.String(), t, nil)
	return t, nil
}

// gpuKernel times one roofline kernel through the store. A roofline is
// arithmetic, not a simulation, so even an inline probe computes a miss.
func (p *profiler) gpuKernel(k gpu.Kernel, layer, kind string, ratio float64) (int64, error) {
	done := p.beginProbe(layer, kind, ratio)
	prof, out, err := p.store.DoObserved(p.gpuKeys.Key(k), func() (profcache.Profile, error) {
		res, err := p.rt.GPU.Time(k)
		if err != nil {
			return profcache.Profile{}, err
		}
		return profcache.Profile{Cycles: res.Cycles}, nil
	})
	if err != nil {
		done(out.String(), 0, err)
		return 0, err
	}
	done(out.String(), prof.Cycles, nil)
	return prof.Cycles, nil
}

// gpuNode times a node on the GPU under the policy's channel count.
func (p *profiler) gpuNode(g *graph.Graph, n *graph.Node) (int64, error) {
	k, err := gpu.NodeKernel(g, n, p.rt.GPU)
	if err != nil {
		return 0, err
	}
	return p.gpuKernel(k, n.Name, "gpu", -1)
}

// pimNode times a whole node offloaded to PIM.
func (p *profiler) pimNode(g *graph.Graph, n *graph.Node, inline bool) (int64, error) {
	w, err := codegen.NodeWorkload(g, n)
	if err != nil {
		return 0, err
	}
	return p.pimWorkload(w, n.Name, "pim", -1, inline)
}

// errUnsplittable is what mddpSplitOf returns, bare, when a ratio grid
// point cannot split the layer's geometry (a skipped point, not a
// failure). Callers classify with errors.Is: the sentinel skips the grid
// point, anything else is a real profiling/simulation error and aborts
// the sweep. No caller reads its text, so a skipped point formats
// nothing.
var errUnsplittable = errors.New("unsplittable at this ratio")

// mddpSplit is the resolved MD-DP geometry of one (layer, ratio) grid
// point: the GPU-half roofline kernel and the PIM-half workload, plus
// the PIM probe label.
type mddpSplit struct {
	gk      gpu.Kernel
	pw      codegen.Workload
	pimKind string
}

// mddpSplitOf resolves the candidate's split geometry at the given GPU
// ratio without probing anything. Off-geometry ratios return
// errUnsplittable.
func (p *profiler) mddpSplitOf(g *graph.Graph, n *graph.Node, ratio float64) (mddpSplit, error) {
	switch n.Op {
	case graph.OpConv:
		return p.mddpConvSplit(g, n, ratio)
	case graph.OpGemm:
		return p.mddpGemmSplit(g, n, ratio)
	default:
		return mddpSplit{}, errUnsplittable
	}
}

func (p *profiler) mddpConvSplit(g *graph.Graph, n *graph.Node, ratio float64) (mddpSplit, error) {
	cp := n.Conv
	in := g.Tensors[n.Inputs[0]].Shape
	w := g.Tensors[n.Inputs[1]].Shape
	out := g.Tensors[n.Outputs[0]].Shape
	oh, ow := out[1], out[2]
	oCut := int(math.Round(float64(oh) * ratio))
	if oCut < 1 || oCut >= oh {
		return mddpSplit{}, errUnsplittable
	}
	// GPU half: top oCut output rows; its input slice height follows the
	// receptive field.
	inRows := (oCut-1)*cp.StrideH + cp.KernelH
	if inRows > in[1] {
		inRows = in[1]
	}
	gl := lower.ConvLowering{
		Dims:   lower.GemmDims{M: oCut * ow, K: cp.KernelH * cp.KernelW * (in[3] / cp.Group), N: w[3] / cp.Group},
		Groups: cp.Group,
		OutH:   oCut, OutW: ow,
	}
	// PIM half: remaining rows, in the same per-group convention as the
	// GPU half (N is the per-group output-channel count; the Groups
	// multiplicity scales the simulated trace).
	return mddpSplit{
		gk:      p.rt.GPU.ConvKernel(inRows, in[2], in[3], gl),
		pw:      codegen.Workload{M: (oh - oCut) * ow, K: gl.Dims.K, N: w[3] / cp.Group, Segments: cp.KernelH, Groups: cp.Group},
		pimKind: "mddp-pim",
	}, nil
}

func (p *profiler) mddpGemmSplit(g *graph.Graph, n *graph.Node, ratio float64) (mddpSplit, error) {
	in := g.Tensors[n.Inputs[0]].Shape
	w := g.Tensors[n.Inputs[1]].Shape
	m, k, nOut := in[0], in[1], w[1]
	cut := int(math.Round(float64(nOut) * ratio))
	if cut < 1 || cut >= nOut {
		return mddpSplit{}, errUnsplittable
	}
	return mddpSplit{
		gk:      p.rt.GPU.GemmKernel(m, k, cut),
		pw:      codegen.Workload{M: m, K: k, N: nOut - cut, Segments: 1},
		pimKind: "mddp-gemm",
	}, nil
}

// mddpProbe measures one resolved split through the store: the two
// halves run in parallel and synchronize at the concat (which the
// memory optimizer elides). The PIM half goes first, so an inline probe
// that needs a simulation has counted nothing when it hands over.
func (p *profiler) mddpProbe(layer string, sp mddpSplit, ratio float64, inline bool) (int64, error) {
	pt, err := p.pimWorkload(sp.pw, layer, sp.pimKind, ratio, inline)
	if err != nil {
		return 0, err
	}
	gt, err := p.gpuKernel(sp.gk, layer, "mddp-gpu", ratio)
	if err != nil {
		return 0, err
	}
	return max(gt, pt) + p.rt.SyncOverheadCycles, nil
}

// exceeds reports whether a resolved split provably takes longer than
// inc, without simulating: the halves run concurrently, so the probe
// takes at least the GPU half's exact roofline time (the value the probe
// would cache) and at least codegen's closed-form serialization bound on
// the PIM half, each plus the merge sync. The GPU half is checked first:
// alone it decides most points, without building the PIM bound's plan.
// An error on either side proves nothing, so the point is probed.
func (p *profiler) exceeds(sp mddpSplit, inc int64) bool {
	res, err := p.rt.GPU.Time(sp.gk)
	if err != nil {
		return false
	}
	sync := p.rt.SyncOverheadCycles
	if res.Cycles+sync > inc {
		return true
	}
	lb, err := codegen.BoundWorkload(sp.pw, p.rt.PIM, p.rt.Codegen)
	return err == nil && p.scalePIM(lb)+sync > inc
}

// prunedProbe records one grid point discarded by the bound.
func (p *profiler) prunedProbe() {
	p.pruned.Add(1)
	p.metrics.Inc("search.pruned_probes")
}

// pipelineProbe profiles a pipelining candidate: the cycles the runtime
// schedules for the chain (nodes of the graph x indexes, in chain order,
// with their key fragments) pipelined at the given stage count. A chain
// the pipelining pass rejects returns an error wrapping
// transform.ErrNotPipelineable, before the store is consulted. Otherwise
// the store answers under the candidate's name-free pipe/ key, and only a
// miss extracts, rewrites and schedules it (simulatePipeline). The
// compute waits on pim/ and gpu/ keys at most, and no leaf compute ever
// waits on a pipe/ key, so the singleflight cannot deadlock.
func (p *profiler) pipelineProbe(x *graph.Index, chain []*graph.Node, frags nodeFrags, cand transform.Candidate, stages int, inline bool) (int64, error) {
	var key profcache.Key
	var prof profcache.Profile
	err := transform.CheckPipeline(x, cand.Nodes, stages)
	if err == nil {
		key = p.pipeKeys.chainKey(x.Graph(), chain, frags, stages)
		if prof, err = p.recall(key, inline); err != nil {
			return 0, err
		}
	}
	done := noopProbeDone
	if p.trace != nil || p.metrics != nil {
		done = p.beginProbe(strings.Join(cand.Nodes, "+"), "pipeline", -1)
	}
	if err != nil { // the rejection
		done("", 0, err)
		return 0, err
	}
	out := profcache.OutcomeHit
	if !inline {
		prof, out, err = p.store.DoObserved(key, func() (profcache.Profile, error) {
			cycles, err := p.simulatePipeline(x.Graph(), chain, cand.Nodes, stages)
			return profcache.Profile{Cycles: cycles}, err
		})
		if err != nil {
			done(out.String(), 0, err)
			return 0, err
		}
	}
	done(out.String(), prof.Cycles, nil)
	return prof.Cycles, nil
}

// simulatePipeline is the uncached pipeline probe. It builds one graph:
// the chain input (the first node's activation), the weights of the chain
// nodes (in chain order; named names), and the stage nodes the pipelining
// pass generates for them at the stage count. It infers that graph's
// shapes once, elides data movement, and schedules it on the runtime; the
// model graph is only read. The probe Execute runs with tracing and
// metrics detached (see newProfiler); only the store is shared.
func (p *profiler) simulatePipeline(g *graph.Graph, chain []*graph.Node, names []string, stages int) (int64, error) {
	sub := graph.New("chain")
	in := chain[0].Inputs[0]
	inTI := g.Tensors[in]
	if inTI == nil || !inTI.Shape.Valid() {
		return 0, fmt.Errorf("search: chain input shape unknown")
	}
	sub.AddInput(in, inTI.Shape...)
	for _, n := range chain {
		for _, w := range n.Inputs[1:] {
			ti := g.Tensors[w]
			if ti == nil {
				return 0, fmt.Errorf("search: tensor %q unknown", w)
			}
			if ti.IsWeight() {
				sub.Tensors[w] = &graph.TensorInfo{Name: w, Shape: ti.Shape, Init: ti.Init, Param: true}
			}
		}
	}
	// The pass sees the chain alone, as if extracted: an index of its
	// nodes over the model's tensor records.
	parts, err := transform.PipelineStages((&graph.Graph{Nodes: chain, Tensors: g.Tensors}).Index(), names, stages, 0)
	if err != nil {
		return 0, err
	}
	for _, n := range parts {
		sub.AddNode(n)
	}
	sub.MarkOutput(chain[len(chain)-1].Outputs[0])
	if err := sub.InferShapes(); err != nil {
		return 0, err
	}
	transform.ElideDataMovement(sub)
	rep, err := runtime.Execute(sub, p.rt)
	if err != nil {
		return 0, err
	}
	return rep.TotalCycles, nil
}
