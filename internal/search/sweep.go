package search

import (
	"errors"
	"sync/atomic"

	"pimflow/internal/graph"
	"pimflow/internal/par"
)

// This file holds the flattened probe-pool machinery behind Run's
// phase 1. Probes execute concurrently in arbitrary order, but every
// result lands in a per-layer, per-grid-index slot and is reduced by a
// single sequential pass in the classic sweep order — so the selected
// ratios, sample lists, and ultimately the Plan bytes are independent
// of scheduling.

// walk runs task(0..n-1), answering from the store on the calling
// goroutine while it can: tasks run inline, in order, until one needs a
// simulation (its probe returns errNeedsSim, having counted nothing).
// That task and every later one then go to par.ForEach, which computes
// misses. A fully recalled phase starts no goroutine; a cold one forks
// at its first simulating task. It returns how many tasks ran inline.
func walk(n int, task func(i int, inline bool) error) (int, error) {
	for i := 0; i < n; i++ {
		err := task(i, true)
		if errors.Is(err, errNeedsSim) {
			return i, par.ForEach(n-i, func(j int) error { return task(i+j, false) })
		}
		if err != nil {
			return i, err
		}
	}
	return n, nil
}

// probeState classifies one grid-point slot after its wave completes.
type probeState uint8

const (
	probeNone   probeState = iota // never issued (off-geometry refine offset)
	probeOK                       // probed; cycles is valid
	probeSkip                     // unsplittable at this ratio (seed parity: silently skipped)
	probePruned                   // discarded by the analytic lower bound
)

// probeResult is one grid-point slot.
type probeResult struct {
	cycles int64
	state  probeState
}

// gridTask addresses one flattened (layer, grid index) probe.
type gridTask struct {
	layer int
	idx   int
}

// layerState carries one layer's decision through the probe waves.
type layerState struct {
	n *graph.Node
	d *LayerDecision // the layer's slot in Plan.Decisions

	// sweep marks MD-DP candidates (the only layers with grid waves).
	sweep bool

	// inc is the layer's incumbent best time, shared across concurrent
	// probes for branch-and-bound pruning. It only ever decreases, and
	// is always ≥ the layer's final BestTime, so pruning against it is
	// conservative.
	inc atomic.Int64

	// grid holds the coarse-wave slots (index i ↔ ratio coarse[i]);
	// refine holds the refine-wave slots (index jj ↔ offset j = jj-span).
	grid   []probeResult
	refine []probeResult

	base, step float64
	span       int
}

// lower folds a probed time into the incumbent (CAS min).
func (st *layerState) lower(t int64) {
	for {
		cur := st.inc.Load()
		if t >= cur || st.inc.CompareAndSwap(cur, t) {
			return
		}
	}
}

// coarseRatios materializes the coarse ratio grid r = i*step, i ≥ 1,
// r < 1-step/2. Deriving each ratio from the integer index keeps the
// samples on-grid, where the accumulating form (r += step) drifts by
// ulps (e.g. 0.30000000000000004) and can add or drop a boundary step.
func coarseRatios(step float64) []float64 {
	if step <= 0 {
		return nil
	}
	var rs []float64
	for i := 1; ; i++ {
		r := float64(i) * step
		if r >= 1-step/2 {
			return rs
		}
		rs = append(rs, r)
	}
}

// refineRatiosOf materializes the refine ratios around the layer's
// coarse best, slot-aligned with st.refine (slot jj ↔ offset jj-span;
// the center and off-range slots stay probeNone and are never read).
func refineRatiosOf(st *layerState) []float64 {
	rs := make([]float64, len(st.refine))
	for jj := range rs {
		rs[jj] = st.base + float64(jj-st.span)*st.step
	}
	return rs
}

// probeGridPoint runs one grid-point probe and classifies its outcome
// into res: unsplittable-ratio sentinels record a skip (matching the
// classic sweep, which silently passed over off-geometry grid points),
// while real profiling or simulation errors propagate and abort the
// search.
func probeGridPoint(res *probeResult, probe func() (int64, error)) error {
	t, err := probe()
	if err != nil {
		if errors.Is(err, errUnsplittable) {
			res.state = probeSkip
			return nil
		}
		return err
	}
	res.cycles = t
	res.state = probeOK
	return nil
}

// probeRatio executes one flattened grid task: resolve the split
// geometry, optionally prune against the layer incumbent, probe, and
// feed the incumbent.
func (p *profiler) probeRatio(g *graph.Graph, st *layerState, res *probeResult, ratio float64, prune, inline bool) error {
	sp, err := p.mddpSplitOf(g, st.n, ratio)
	if err != nil {
		if errors.Is(err, errUnsplittable) {
			res.state = probeSkip
			return nil
		}
		return err
	}
	// Strictly-greater comparison: a bound equal to the incumbent could
	// still tie the final best, and ties are resolved by grid order in the
	// reduction — only provably-worse points may be dropped.
	if prune && p.exceeds(sp, st.inc.Load()) {
		res.state = probePruned
		p.prunedProbe()
		return nil
	}
	if err := probeGridPoint(res, func() (int64, error) {
		return p.mddpProbe(st.n.Name, sp, ratio, inline)
	}); err != nil {
		return err
	}
	if res.state == probeOK {
		st.lower(res.cycles)
	}
	return nil
}

// reduceGrid folds one wave's slots into the layer decision in
// ascending grid order, exactly replaying the classic sequential
// sweep's strict-improvement rule (first achiever wins ties).
//
//pimflow:deterministic
func reduceGrid(st *layerState, results []probeResult, ratios []float64, keep bool) {
	d := st.d
	for i := range results {
		res := &results[i]
		if res.state != probeOK {
			continue
		}
		if keep {
			d.Samples = append(d.Samples, RatioSample{GPURatio: ratios[i], Cycles: res.cycles})
		}
		if res.cycles < d.BestTime {
			d.BestTime = res.cycles
			d.GPURatio = ratios[i]
		}
	}
}
