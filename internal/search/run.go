package search

import (
	"errors"
	"fmt"
	"log/slog"
	"math"

	"pimflow/internal/graph"
	"pimflow/internal/obs"
	"pimflow/internal/transform"
)

// Run executes Algorithm 1 on the graph: profile every node's execution
// modes, profile every pipelining candidate, and solve for the optimal
// combination with dynamic programming over the topological node order.
func Run(g *graph.Graph, opts Options) (*Plan, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	// One adjacency index serves the whole search. Inference leaves an
	// already-shaped graph (every models.Build output) unwritten, so
	// concurrent searches may share the caller's graph.
	x := g.Index()
	ord, err := x.InferShapes()
	if err != nil {
		return nil, err
	}
	order := make([]*graph.Node, len(ord))
	rank := make([]int, len(ord)) // node position -> topological index
	for i, p := range ord {
		order[i], rank[p] = x.At(p), i
	}
	prof := newProfiler(opts)
	cacheBefore := prof.store.Stats()
	plan := &Plan{Model: g.Name, Policy: opts.Policy, Options: opts}
	if obs.Enabled(slog.LevelInfo) {
		obs.L().Info("search: starting",
			"model", g.Name, "policy", opts.Policy.String(), "nodes", len(order),
			"cachedProfiles", cacheBefore.Entries)
	}

	// Unary activations following a conv/FC layer are free: the GPU
	// back-end fuses them into the producer kernel's epilogue (TVM's
	// cuDNN mapping) and the PIM device applies activation functions on
	// readout (as the AiM hardware supports). The runtime applies the same
	// rule, keeping the DP cost model consistent with execution.
	fused := make([]bool, len(order))
	for i, n := range order {
		if !isFusableActivation(n.Op) || len(n.Inputs) != 1 {
			continue
		}
		p := x.Producer(n.Inputs[0])
		if p == nil || (p.Op != graph.OpConv && p.Op != graph.OpGemm) {
			continue
		}
		fused[i] = len(x.Consumers(p.Outputs[0])) == 1
	}

	// Phase 1: per-node execution mode and task size (optimal_split). The
	// full probe set is flattened wave by wave — serial endpoints, coarse
	// ratio grid, refine grid — and each wave is walked (see walk): inline
	// while the shared singleflight profcache answers, on the bounded
	// worker pool from the first probe that must simulate. Results land in
	// per-layer index slots and a sequential pass reduces them in the
	// classic sweep order afterwards, so the Plan bytes are identical
	// regardless of completion order.
	//
	// The coarse and refine waves prune: each layer tracks its incumbent
	// best time, and a grid point whose analytic lower bound (exceeds)
	// strictly exceeds the incumbent is skipped without probing. Pruning
	// never changes the Plan: the incumbent only shrinks toward the
	// layer's final best F, so a pruned point's true time t satisfies
	// t >= bound > incumbent >= F — it can neither beat F nor tie it (the
	// reduction replaces the best only on strictly smaller times, so a
	// first-achiever tie is decided among unpruned points only).
	// KeepSamples (or NoPrune) disables pruning so recorded sample lists
	// stay complete.
	cost := make([]int64, len(order))
	plan.Decisions = make([]LayerDecision, len(order))
	endPhase1 := opts.Trace.Span("search", "profile-layers", "search.phase",
		map[string]any{"model": g.Name, "policy": opts.Policy.String(), "nodes": len(order)})
	phase1Err := func(err error) (*Plan, error) {
		endPhase1(map[string]any{"error": err.Error()})
		return nil, err
	}
	prune := !opts.KeepSamples && !opts.NoPrune
	coarse := coarseRatios(opts.RatioStep)
	states := make([]layerState, len(order))
	tasksInline, tasksPooled := 0, 0
	wave := func(n int, task func(i int, inline bool) error) error {
		k, err := walk(n, task)
		tasksInline, tasksPooled = tasksInline+k, tasksPooled+n-k
		return err
	}

	// Wave 1: serial endpoints (full PIM, full GPU) seed the incumbents.
	// The PIM probe goes first, so a task that must simulate hands over
	// before the GPU probe counts.
	if err := wave(len(order), func(i int, inline bool) error {
		st, n, d := &states[i], order[i], &plan.Decisions[i]
		st.n, st.d = n, d
		*d = LayerDecision{Node: n.Name, Op: n.Op, GPURatio: 1}
		if opts.allowOffload() && g.IsPIMCandidate(n) {
			tPIM, err := prof.pimNode(g, n, inline)
			if err != nil {
				return fmt.Errorf("search: PIM profile %q: %w", n.Name, err)
			}
			d.PIMCandidate, d.PIMTime = true, tPIM
		}
		if !fused[i] {
			t, err := prof.gpuNode(g, n)
			if err != nil {
				return fmt.Errorf("search: GPU profile %q: %w", n.Name, err)
			}
			d.GPUTime = t
		}
		d.BestTime = d.GPUTime
		if d.PIMCandidate {
			if d.PIMTime < d.BestTime {
				d.BestTime = d.PIMTime
				d.GPURatio = 0
			}
			if opts.allowMDDP() {
				st.sweep = true
				if opts.KeepSamples {
					d.Samples = append(d.Samples,
						RatioSample{GPURatio: 0, Cycles: d.PIMTime},
						RatioSample{GPURatio: 1, Cycles: d.GPUTime})
				}
			}
		}
		st.inc.Store(d.BestTime)
		return nil
	}); err != nil {
		return phase1Err(err)
	}

	// Wave 2: the flattened (layer × ratio) coarse grid, its slots in one
	// block.
	sweeps := 0
	for i := range states {
		if states[i].sweep {
			sweeps++
		}
	}
	slots := make([]probeResult, sweeps*len(coarse))
	tasks := make([]gridTask, 0, len(slots))
	for i := range states {
		if !states[i].sweep {
			continue
		}
		states[i].grid, slots = slots[:len(coarse):len(coarse)], slots[len(coarse):]
		for gi := range coarse {
			tasks = append(tasks, gridTask{layer: i, idx: gi})
		}
	}
	if err := wave(len(tasks), func(ti int, inline bool) error {
		t := tasks[ti]
		st := &states[t.layer]
		return prof.probeRatio(g, st, &st.grid[t.idx], coarse[t.idx], prune, inline)
	}); err != nil {
		return phase1Err(err)
	}
	for i := range states {
		reduceGrid(&states[i], states[i].grid, coarse, opts.KeepSamples)
	}

	// Wave 3: the flattened (layer × offset) refine grid around each
	// layer's coarse best.
	if opts.RefineRatio {
		step := opts.RefineStep
		if step <= 0 {
			step = 0.02
		}
		span := int(math.Round(opts.RatioStep / step))
		tasks = tasks[:0]
		for i := range states {
			st := &states[i]
			if !st.sweep || st.d.GPURatio <= 0 || st.d.GPURatio >= 1 {
				continue
			}
			st.base, st.step, st.span = st.d.GPURatio, step, span
			st.refine = make([]probeResult, 2*span+1)
			for j := -span; j <= span; j++ {
				if j == 0 {
					continue
				}
				if r := st.base + float64(j)*step; r > 0 && r < 1 {
					tasks = append(tasks, gridTask{layer: i, idx: j + span})
				}
			}
		}
		if err := wave(len(tasks), func(ti int, inline bool) error {
			t := tasks[ti]
			st := &states[t.layer]
			r := st.base + float64(t.idx-st.span)*st.step
			return prof.probeRatio(g, st, &st.refine[t.idx], r, prune, inline)
		}); err != nil {
			return phase1Err(err)
		}
	}
	for i := range states {
		st := &states[i]
		if st.refine != nil {
			reduceGrid(st, st.refine, refineRatiosOf(st), opts.KeepSamples)
		}
		cost[i] = st.d.BestTime
	}
	endPhase1(map[string]any{"prunedProbes": prof.pruned.Load(), "inline": tasksInline, "pooled": tasksPooled})

	// Phase 2: pipelining candidates, walked like the waves. A candidate
	// whose chain is not consecutive in topological order, or that the
	// pipelining pass rejects (e.g. too few rows), keeps Len 0 and is
	// dropped; the rest stay in candidate order.
	if opts.allowPipeline() {
		cands := transform.FindPipelineCandidates(x)
		pds := make([]PipelineDecision, len(cands))
		for ci, cand := range cands {
			if start, length, ok := chainSpan(cand.Nodes, x, rank); ok {
				pds[ci] = PipelineDecision{Candidate: cand, Stages: opts.PipelineStages, StartIdx: start, Len: length}
			}
		}
		frags := fragments(order, pds)
		endPhase2 := opts.Trace.Span("search", "profile-pipelines", "search.phase",
			map[string]any{"model": g.Name, "candidates": len(cands)})
		k, err := walk(len(pds), func(ci int, inline bool) error {
			pd := &pds[ci]
			start, end := pd.StartIdx, pd.StartIdx+pd.Len
			if start == end {
				return nil
			}
			t, err := prof.pipelineProbe(x, order[start:end], frags.span(start, end), pd.Candidate, pd.Stages, inline)
			if errors.Is(err, transform.ErrNotPipelineable) {
				pd.Len = 0
				return nil
			}
			if err != nil {
				return fmt.Errorf("search: pipeline profile %v: %w", pd.Candidate.Nodes, err)
			}
			pd.Time = t
			for i := start; i < end; i++ {
				pd.SerialBest += cost[i]
			}
			return nil
		})
		if err != nil {
			endPhase2(map[string]any{"error": err.Error()})
			return nil, err
		}
		kept := pds[:0]
		for _, pd := range pds {
			if pd.Len > 0 {
				kept = append(kept, pd)
			}
		}
		if len(kept) > 0 {
			plan.Pipelines = kept
		}
		endPhase2(map[string]any{"profiled": len(plan.Pipelines), "inline": k, "pooled": len(pds) - k})
	}

	// Phase 3: dynamic program over the node sequence (Algorithm 1 lines
	// 23-29): D[i] is the optimal time of nodes i..end; at each i either
	// execute node i in its best single-node mode or enter a pipelined
	// subgraph covering [i, i+len).
	endPhase3 := opts.Trace.Span("search", "dynamic-program", "search.phase",
		map[string]any{"model": g.Name})
	n := len(order)
	dp := make([]int64, n+1)
	choice := make([]int, n) // -1 = single node, else pipeline index
	const inf = int64(1) << 62
	for i := n - 1; i >= 0; i-- {
		dp[i] = inf
		choice[i] = -1
		if cost[i]+dp[i+1] < dp[i] {
			dp[i] = cost[i] + dp[i+1]
		}
		for pi := range plan.Pipelines {
			pd := &plan.Pipelines[pi]
			if pd.StartIdx != i {
				continue
			}
			if t := pd.Time + dp[i+pd.Len]; t < dp[i] {
				dp[i] = t
				choice[i] = pi
			}
		}
	}
	for i := 0; i < n; {
		if choice[i] >= 0 {
			plan.Pipelines[choice[i]].Chosen = true
			i += plan.Pipelines[choice[i]].Len
		} else {
			i++
		}
	}
	plan.TotalProfiled = dp[0]
	endPhase3(map[string]any{"totalProfiled": plan.TotalProfiled})
	plan.Cache = prof.store.Stats().Sub(cacheBefore)
	plan.Cache.Pruned = prof.pruned.Load()
	prof.finishMetrics()
	if opts.Metrics != nil {
		opts.Metrics.Inc("search.runs")
		opts.Metrics.Add("search.cache_hits", plan.Cache.Hits)
		opts.Metrics.Add("search.cache_misses", plan.Cache.Misses)
		opts.Metrics.Add("search.cache_shared", plan.Cache.Shared)
	}
	if obs.Enabled(slog.LevelInfo) {
		offload, split := 0, 0
		for _, d := range plan.Decisions {
			switch {
			case d.PIMCandidate && d.GPURatio <= 0:
				offload++
			case d.PIMCandidate && d.GPURatio < 1:
				split++
			}
		}
		chosen := 0
		for _, pd := range plan.Pipelines {
			if pd.Chosen {
				chosen++
			}
		}
		obs.L().Info("search: plan ready",
			"model", g.Name, "policy", opts.Policy.String(),
			"totalProfiledCycles", plan.TotalProfiled,
			"fullOffload", offload, "mddpSplit", split, "pipelines", chosen,
			"cache", plan.Cache.String())
	}
	return plan, nil
}

// isFusableActivation mirrors the runtime's fusion rule.
func isFusableActivation(op graph.OpType) bool {
	switch op {
	case graph.OpRelu, graph.OpClip, graph.OpSigmoid, graph.OpSiLU, graph.OpGelu:
		return true
	}
	return false
}

// chainSpan locates a chain in the topological order (rank maps a node
// position of x to its topological index), requiring its nodes to be
// consecutive.
func chainSpan(names []string, x *graph.Index, rank []int) (start, length int, ok bool) {
	start = -1
	for i, name := range names {
		pos := x.Pos(name)
		if pos < 0 {
			return 0, 0, false
		}
		idx := rank[pos]
		if i == 0 {
			start = idx
		} else if idx != start+i {
			return 0, 0, false
		}
	}
	return start, len(names), true
}

// Compile runs the search and applies the plan, returning the transformed
// graph and the plan.
func Compile(g *graph.Graph, opts Options) (*graph.Graph, *Plan, error) {
	plan, err := Run(g, opts)
	if err != nil {
		return nil, nil, err
	}
	out, err := Apply(g, plan)
	if err != nil {
		return nil, nil, err
	}
	return out, plan, nil
}
