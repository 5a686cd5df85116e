package search

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"pimflow/internal/graph"
	"pimflow/internal/models"
)

// TestProbeGridPointClassification pins the error seam the grid sweep
// relies on: the unsplittable sentinel is demoted to a skipped slot, a
// real profiler error propagates (the seed swallowed both with a bare
// continue), and a successful probe records its cycles.
func TestProbeGridPointClassification(t *testing.T) {
	var res probeResult
	sentinel := fmt.Errorf("search: conv %q cannot split: %w", "c1", errUnsplittable)
	if err := probeGridPoint(&res, func() (int64, error) { return 0, sentinel }); err != nil {
		t.Fatalf("sentinel must not propagate: %v", err)
	}
	if res.state != probeSkip {
		t.Fatalf("sentinel state = %d, want probeSkip", res.state)
	}

	res = probeResult{}
	real := errors.New("simulation exploded")
	err := probeGridPoint(&res, func() (int64, error) { return 0, real })
	if !errors.Is(err, real) {
		t.Fatalf("real error swallowed: got %v", err)
	}
	if res.state != probeNone {
		t.Fatalf("failed probe state = %d, want probeNone", res.state)
	}

	res = probeResult{}
	if err := probeGridPoint(&res, func() (int64, error) { return 1234, nil }); err != nil {
		t.Fatal(err)
	}
	if res.state != probeOK || res.cycles != 1234 {
		t.Fatalf("ok probe = %+v, want probeOK/1234", res)
	}
}

// TestMDDPUnsplittableSentinel checks that off-geometry candidates are
// classified by the sentinel, not by error text: a non-Conv/Gemm op can
// never split, and errors.Is sees through the wrapping.
func TestMDDPUnsplittableSentinel(t *testing.T) {
	g := toyGraph(t)
	p := newProfiler(DefaultOptions(PolicyPIMFlow))
	var relu *graph.Node
	for _, n := range g.Nodes {
		if n.Op == graph.OpRelu {
			relu = n
			break
		}
	}
	if relu == nil {
		t.Fatal("toy model has no Relu node")
	}
	_, err := p.mddpSplitOf(g, relu, 0.5)
	if !errors.Is(err, errUnsplittable) {
		t.Fatalf("mddpSplitOf(Relu) = %v, want the unsplittable sentinel", err)
	}
	// And through the full probe path.
	if _, err := p.mddp(g, relu, 0.5); !errors.Is(err, errUnsplittable) {
		t.Fatalf("mddp(Relu) = %v, want the unsplittable sentinel", err)
	}
}

// TestPruningPreservesPlanBytes is the tentpole's determinism contract:
// branch-and-bound pruning and the parallel probe pool change how much is
// simulated, never what is decided. Pruned and unpruned compilations of
// the same model must produce identical decisions, pipelines, and totals.
func TestPruningPreservesPlanBytes(t *testing.T) {
	build := func() *graph.Graph {
		g, err := models.Build("mobilenet-v2", models.Options{Light: true})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	compile := func(noPrune bool) *Plan {
		opts := DefaultOptions(PolicyPIMFlow)
		opts.NoPrune = noPrune
		plan, err := Run(build(), opts)
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	pruned := compile(false)
	full := compile(true)

	if pruned.Cache.Pruned == 0 {
		t.Error("default compile pruned nothing; the bound is dead")
	}
	if full.Cache.Pruned != 0 {
		t.Errorf("NoPrune compile still pruned %d probes", full.Cache.Pruned)
	}
	if pruned.Cache.Misses >= full.Cache.Misses {
		t.Errorf("pruning did not reduce simulations: %d misses vs %d unpruned",
			pruned.Cache.Misses, full.Cache.Misses)
	}

	if !reflect.DeepEqual(pruned.Decisions, full.Decisions) {
		t.Error("pruning changed per-layer decisions")
	}
	if !reflect.DeepEqual(pruned.Pipelines, full.Pipelines) {
		t.Error("pruning changed pipeline choices")
	}
	if pruned.TotalProfiled != full.TotalProfiled {
		t.Errorf("pruning changed the total: %d vs %d", pruned.TotalProfiled, full.TotalProfiled)
	}

	// And a repeated pruned run is bit-stable (parallel assembly is
	// deterministic regardless of completion order).
	again := compile(false)
	if !reflect.DeepEqual(pruned.Decisions, again.Decisions) ||
		!reflect.DeepEqual(pruned.Pipelines, again.Pipelines) ||
		pruned.TotalProfiled != again.TotalProfiled {
		t.Error("two identical compilations disagree")
	}
}

// mddp times the MD-DP execution of a candidate node at the given GPU
// ratio — split resolution plus probe.
func (p *profiler) mddp(g *graph.Graph, n *graph.Node, ratio float64) (int64, error) {
	sp, err := p.mddpSplitOf(g, n, ratio)
	if err != nil {
		return 0, err
	}
	return p.mddpProbe(n.Name, sp, ratio, false)
}
