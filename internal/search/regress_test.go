package search

import (
	"fmt"
	"math"
	"testing"

	"pimflow/internal/codegen"
	"pimflow/internal/graph"
	"pimflow/internal/models"
	"pimflow/internal/pim"
	"pimflow/internal/profcache"
	"pimflow/internal/runtime"
	"pimflow/internal/transform"
)

// TestRatioSweepOnGrid is the regression test for the accumulating ratio
// sweep: every recorded MD-DP sample must sit exactly on the grid
// r = i*RatioStep. The accumulating form (r += step) drifts by ulps —
// e.g. seven additions of 0.1 give 0.6999999999999999 while
// float64(7)*0.1 is 0.7000000000000001 — so this fails on the old loop.
func TestRatioSweepOnGrid(t *testing.T) {
	g := toyGraph(t)
	opts := DefaultOptions(PolicyMDDP)
	opts.KeepSamples = true
	plan, err := Run(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, d := range plan.Decisions {
		for _, s := range d.Samples {
			if s.GPURatio <= 0 || s.GPURatio >= 1 {
				continue // serial endpoints
			}
			checked++
			i := int(s.GPURatio/opts.RatioStep + 0.5)
			if got, want := s.GPURatio, float64(i)*opts.RatioStep; got != want {
				t.Errorf("node %q: sample ratio %v is off-grid (nearest grid point %v)", d.Node, got, want)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no MD-DP samples recorded")
	}
}

// TestRatioSweepStepCount pins the number of sweep points for a step
// where accumulation and the exact grid disagree: with RatioStep = 0.08
// the grid has 11 interior multiples below the 1 - step/2 bound
// (11*0.08 = 0.88; 12*0.08 = 0.96 is excluded), but the accumulating
// loop's 12th value drifts to 0.9599999999999999 and sneaks under the
// bound, producing a 12th, off-grid probe.
func TestRatioSweepStepCount(t *testing.T) {
	g := toyGraph(t)
	opts := DefaultOptions(PolicyMDDP)
	opts.RatioStep = 0.08
	opts.KeepSamples = true
	plan, err := Run(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	const wantPoints = 11
	found := false
	for _, d := range plan.Decisions {
		interior := 0
		for _, s := range d.Samples {
			if s.GPURatio > 0 && s.GPURatio < 1 {
				interior++
			}
		}
		if interior == 0 {
			continue
		}
		found = true
		// Layers can reject individual ratios (unsplittable), so the count
		// may fall short — but it must never exceed the grid size.
		if interior > wantPoints {
			t.Errorf("node %q: %d interior sweep points, grid only has %d", d.Node, interior, wantPoints)
		}
	}
	if !found {
		t.Fatal("no MD-DP samples recorded")
	}
}

// grouped builds a graph whose middle layer is a grouped (non-depthwise)
// convolution — a PIM candidate (graph.IsPIMCandidate accepts it) that the
// seed code crashed on (codegen.NodeWorkload rejected Group != 1).
func groupedConvGraph(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder("grouped", 1, 32, 32, 8)
	b.Conv(8, 3, 3, 1, 1, [4]int{1, 1, 1, 1}, 2) // 2 groups of 4 channels
	b.Relu()
	b.PointwiseConv(16)
	g, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestGroupedConvSearch is the regression test for the grouped-conv
// workload mismatch: the search must profile a grouped non-depthwise
// convolution (seed: Run failed outright with "grouped conv unsupported
// on PIM"), and its PIM time must reflect the per-group GEMM scaled by
// the group count — matching the MD-DP halves' convention.
func TestGroupedConvSearch(t *testing.T) {
	g := groupedConvGraph(t)
	opts := DefaultOptions(PolicyMDDP)
	plan, err := Run(g, opts)
	if err != nil {
		t.Fatalf("search failed on grouped conv: %v", err)
	}
	var d *LayerDecision
	for i := range plan.Decisions {
		if plan.Decisions[i].Op == graph.OpConv && plan.Decisions[i].PIMCandidate {
			d = &plan.Decisions[i]
			break
		}
	}
	if d == nil {
		t.Fatal("grouped conv was not a PIM candidate")
	}
	if d.PIMTime <= 0 {
		t.Fatalf("grouped conv has no PIM profile: %+v", d)
	}
	// The whole-layer time must equal Groups x the per-group GEMM time.
	rt := opts.RuntimeConfig()
	n := g.Node(d.Node)
	w, err := codegen.NodeWorkload(g, n)
	if err != nil {
		t.Fatal(err)
	}
	if w.Groups != 2 {
		t.Fatalf("workload groups = %d, want 2", w.Groups)
	}
	perGroup := w
	perGroup.Groups = 1
	stGroup, err := codegen.TimeWorkload(perGroup, rt.PIM, rt.Codegen)
	if err != nil {
		t.Fatal(err)
	}
	if d.PIMTime != 2*stGroup.Cycles {
		t.Errorf("grouped PIM time %d != 2 x per-group %d", d.PIMTime, stGroup.Cycles)
	}
	// And the transformed graph must execute (the runtime hits the same
	// NodeWorkload path).
	xg, err := Apply(g, plan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runtime.Execute(xg, rt); err != nil {
		t.Fatalf("executing transformed grouped-conv graph: %v", err)
	}
}

// TestStatsScale checks the grouped-trace scaling helper.
func TestStatsScale(t *testing.T) {
	st := pim.Stats{Cycles: 10, PerChannel: []int64{10, 8}, Seconds: 1e-8, BusyFraction: 0.5}
	st.Counts.Comps = 4
	s3 := st.Scale(3)
	if s3.Cycles != 30 || s3.PerChannel[0] != 30 || s3.PerChannel[1] != 24 || s3.Counts.Comps != 12 {
		t.Errorf("Scale(3) = %+v", s3)
	}
	if s3.BusyFraction != 0.5 {
		t.Error("BusyFraction must not scale")
	}
	if st.Cycles != 10 || st.PerChannel[0] != 10 {
		t.Error("Scale mutated the receiver")
	}
}

// TestProfilerRuntimeMDDPConsistency is the cost-model alignment test:
// the time the search's profiler predicts for an MD-DP split layer must
// equal the runtime's schedule of the SplitMDDP-transformed graph — both
// charge the synchronization overhead exactly once, at the merge.
func TestProfilerRuntimeMDDPConsistency(t *testing.T) {
	g := toyGraph(t)
	opts := DefaultOptions(PolicyMDDP)
	prof := newProfiler(opts)
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, n := range g.Nodes {
		if n.Op != graph.OpConv || !g.IsPIMCandidate(n) {
			continue
		}
		for _, ratio := range []float64{0.3, 0.5, 0.7} {
			want, err := prof.mddp(g, n, ratio)
			if err != nil {
				continue
			}
			// Isolate the layer and execute its transformed form.
			sub, err := extractChain(g, []*graph.Node{n})
			if err != nil {
				t.Fatal(err)
			}
			if err := transform.SplitMDDP(sub, n.Name, ratio); err != nil {
				t.Fatal(err)
			}
			transform.ElideDataMovement(sub)
			if err := sub.InferShapes(); err != nil {
				t.Fatal(err)
			}
			rep, err := runtime.Execute(sub, prof.rt)
			if err != nil {
				t.Fatal(err)
			}
			if rep.TotalCycles != want {
				t.Errorf("conv %q ratio %v: profiler %d cycles, runtime %d", n.Name, ratio, want, rep.TotalCycles)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no splittable conv found")
	}
}

// TestSharedStorePlansIdentical: a shared profile store must change only
// the amount of simulation work, never the search result. The second
// compilation against a warm store performs zero simulations.
func TestSharedStorePlansIdentical(t *testing.T) {
	g1 := toyGraph(t)
	g2 := toyGraph(t)
	shared := profcache.New()
	optsCold := DefaultOptions(PolicyPIMFlow)
	optsWarm := DefaultOptions(PolicyPIMFlow)
	optsWarm.Profiles = shared

	// Warm the store once.
	if _, err := Run(toyGraph(t), optsWarm); err != nil {
		t.Fatal(err)
	}
	planCold, err := Run(g1, optsCold)
	if err != nil {
		t.Fatal(err)
	}
	planWarm, err := Run(g2, optsWarm)
	if err != nil {
		t.Fatal(err)
	}
	if planWarm.Cache.Misses != 0 {
		t.Errorf("warm run missed %d times, want 0", planWarm.Cache.Misses)
	}
	if planWarm.Cache.Hits == 0 {
		t.Error("warm run recorded no hits")
	}
	if planCold.Cache.Misses == 0 {
		t.Error("cold run recorded no misses")
	}
	if fmt.Sprint(planCold.Decisions) != fmt.Sprint(planWarm.Decisions) {
		t.Error("shared store changed the layer decisions")
	}
	if planCold.TotalProfiled != planWarm.TotalProfiled {
		t.Errorf("TotalProfiled differs: cold %d, warm %d", planCold.TotalProfiled, planWarm.TotalProfiled)
	}
	if fmt.Sprint(planCold.Pipelines) != fmt.Sprint(planWarm.Pipelines) {
		t.Error("shared store changed the pipeline decisions")
	}
}

// TestRefineRatioKeepsSamples is the regression test for the refine
// sweep's sample recording: with RefineRatio and KeepSamples both set,
// the fine-grid probes around an interior coarse best must land in
// LayerDecision.Samples like the coarse probes do — the recorded curve
// is the whole search, not just the coarse pass. The old refine loop
// updated BestTime without appending, so every sample sat on the coarse
// grid and this fails.
func TestRefineRatioKeepsSamples(t *testing.T) {
	g, err := models.Build("mobilenet-v2", models.Options{Light: true})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(PolicyMDDP)
	opts.RefineRatio = true
	opts.KeepSamples = true
	plan, err := Run(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	interior, offGrid := 0, 0
	for _, d := range plan.Decisions {
		if d.GPURatio > 0 && d.GPURatio < 1 {
			interior++
		}
		for _, s := range d.Samples {
			if s.GPURatio <= 0 || s.GPURatio >= 1 {
				continue
			}
			// Refine probes are offsets of RefineStep (default 0.02) from
			// the coarse best, so they miss the coarse grid r = i*RatioStep.
			k := s.GPURatio / opts.RatioStep
			if math.Abs(k-math.Round(k)) > 1e-9 {
				offGrid++
			}
		}
	}
	if interior == 0 {
		t.Fatal("no interior-best decision; the refine pass never ran and the test is vacuous")
	}
	if offGrid == 0 {
		t.Fatalf("refine probed %d interior-best layers but recorded no off-grid samples", interior)
	}
	// The recorded minimum must still agree with BestTime (the invariant
	// TestKeepSamplesRecordsCurve checks for the coarse pass).
	for _, d := range plan.Decisions {
		for _, s := range d.Samples {
			if s.Cycles < d.BestTime {
				t.Fatalf("node %q: sample %.3f/%d beats BestTime %d", d.Node, s.GPURatio, s.Cycles, d.BestTime)
			}
		}
	}
}
