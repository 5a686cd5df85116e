package search

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"pimflow/internal/codegen"
	"pimflow/internal/graph"
	"pimflow/internal/models"
	"pimflow/internal/obs"
	"pimflow/internal/profcache"
)

// walkGraphs returns the five evaluated CNNs and toy, Light builds.
func walkGraphs(t *testing.T) []*graph.Graph {
	t.Helper()
	gs := []*graph.Graph{toyGraph(t)}
	for _, name := range models.EvaluatedCNNs() {
		g, err := models.Build(name, models.Options{Light: true})
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, g)
	}
	return gs
}

// walkVariants returns every policy's default options plus, under the
// two policies that sweep MD-DP ratios, the NoPrune, KeepSamples and
// RefineRatio variants.
func walkVariants() map[string]Options {
	out := map[string]Options{}
	for _, pol := range Policies() {
		out[pol.String()] = DefaultOptions(pol)
	}
	for _, pol := range []Policy{PolicyMDDP, PolicyPIMFlow} {
		o := DefaultOptions(pol)
		o.NoPrune = true
		out[pol.String()+"/NoPrune"] = o
		o = DefaultOptions(pol)
		o.KeepSamples = true
		out[pol.String()+"/KeepSamples"] = o
		o = DefaultOptions(pol)
		o.RefineRatio = true
		out[pol.String()+"/RefineRatio"] = o
	}
	return out
}

func mustRun(t *testing.T, g *graph.Graph, opts Options) *Plan {
	t.Helper()
	plan, err := Run(g, opts)
	if err != nil {
		t.Fatalf("%s: %v", g.Name, err)
	}
	return plan
}

// planDiff names the first part of two plans that differs: decisions,
// pipelines, total or certificate.
func planDiff(a, b *Plan) string {
	switch {
	case !reflect.DeepEqual(a.Decisions, b.Decisions):
		return "decisions"
	case !reflect.DeepEqual(a.Pipelines, b.Pipelines):
		return "pipelines"
	case a.TotalProfiled != b.TotalProfiled:
		return "total"
	case !reflect.DeepEqual(a.Certificate(), b.Certificate()):
		return "certificate"
	}
	return ""
}

// TestInlineWalkPlansMatchCold compiles each model under each option set
// over a cold private store, over a store its own Run warmed (answered
// inline), and over a store another model warmed (inline up to the first
// miss, pooled after it). All three plans and certificates must be equal.
func TestInlineWalkPlansMatchCold(t *testing.T) {
	gs := walkGraphs(t)
	for name, opts := range walkVariants() {
		for i, g := range gs {
			cold := mustRun(t, g, opts)

			warm := opts
			warm.Profiles = profcache.New()
			mustRun(t, g, warm)
			if d := planDiff(cold, mustRun(t, g, warm)); d != "" {
				t.Errorf("%s %s: a warm store changed the %s", name, g.Name, d)
			}

			other := opts
			other.Profiles = profcache.New()
			mustRun(t, gs[(i+1)%len(gs)], other)
			if d := planDiff(cold, mustRun(t, g, other)); d != "" {
				t.Errorf("%s %s: a store warmed by %s changed the %s", name, g.Name, gs[(i+1)%len(gs)].Name, d)
			}
		}
	}
}

// probeCounts is one Run's search-level store lookups by outcome, read
// from the search.probe_cache counters each probe bumps once.
type probeCounts struct{ hit, miss, shared int64 }

func (c probeCounts) total() int64 { return c.hit + c.miss + c.shared }

func runCounted(t *testing.T, g *graph.Graph, opts Options) (*Plan, probeCounts) {
	t.Helper()
	opts.Metrics = obs.NewMetrics()
	plan := mustRun(t, g, opts)
	snap := opts.Metrics.Snapshot().Counters
	c := func(outcome string) int64 {
		return snap[obs.LabeledKey("search.probe_cache", "outcome", outcome)]
	}
	if got := snap["search.pruned_probes"]; got != plan.Cache.Pruned {
		t.Errorf("%s: %d pruned probes counted, Plan.Cache.Pruned %d", g.Name, got, plan.Cache.Pruned)
	}
	return plan, probeCounts{c("hit"), c("miss"), c("shared")}
}

// TestInlineWalkCountsEachProbeOnce checks Plan.Cache against the
// lookups each Run makes, on cold, warm and partially warm stores (the
// last warmed by a Newton++ search, which shares the endpoint keys but
// no ratio or pipeline key). Each probe counts once, as a hit, a miss or
// a shared wait, or its grid point once as pruned; a pruned point skips
// its two lookups. So lookups + 2·pruned must equal an unpruned Run's
// lookups, whichever path answered them. The store's counters must equal
// the probes' wherever no pipeline was simulated (its schedule consults
// the store too): under PIMFlow-md, or on a warm store.
func TestInlineWalkCountsEachProbeOnce(t *testing.T) {
	for _, g := range walkGraphs(t) {
		for _, pol := range []Policy{PolicyMDDP, PolicyPIMFlow} {
			ref := DefaultOptions(pol)
			ref.NoPrune = true
			_, all := runCounted(t, g, ref)
			stores := map[string]func() *profcache.Store{
				"cold": profcache.New,
				"warm": func() *profcache.Store {
					o := DefaultOptions(pol)
					o.Profiles = profcache.New()
					mustRun(t, g, o)
					return o.Profiles
				},
				"partial": func() *profcache.Store {
					o := DefaultOptions(PolicyNewtonPlusPlus)
					o.Profiles = profcache.New()
					mustRun(t, g, o)
					return o.Profiles
				},
			}
			for state, store := range stores {
				for _, noPrune := range []bool{false, true} {
					opts := DefaultOptions(pol)
					opts.NoPrune = noPrune
					opts.Profiles = store()
					plan, got := runCounted(t, g, opts)
					what := fmt.Sprintf("%s %v %s NoPrune=%v", g.Name, pol, state, noPrune)
					if got.total()+2*plan.Cache.Pruned != all.total() {
						t.Errorf("%s: %d lookups + 2×%d pruned, an unpruned Run makes %d lookups",
							what, got.total(), plan.Cache.Pruned, all.total())
					}
					c := plan.Cache
					if (pol == PolicyMDDP || state == "warm") && (c.Hits != got.hit || c.Misses != got.miss || c.Shared != got.shared) {
						t.Errorf("%s: Plan.Cache counts %d/%d/%d hits/misses/shared, the probes %d/%d/%d",
							what, c.Hits, c.Misses, c.Shared, got.hit, got.miss, got.shared)
					}
				}
			}
		}
	}
}

// phaseSplits returns each search phase span's inline and pooled task
// counts.
func phaseSplits(t *testing.T, tr *obs.Trace) map[string][2]int {
	t.Helper()
	out := map[string][2]int{}
	for _, ev := range tr.Events() {
		if ev.Cat != "search.phase" || (ev.Name != "profile-layers" && ev.Name != "profile-pipelines") {
			continue
		}
		in, ok1 := ev.Args["inline"].(int)
		pooled, ok2 := ev.Args["pooled"].(int)
		if !ok1 || !ok2 {
			t.Fatalf("%s span lacks its task counts: %v", ev.Name, ev.Args)
		}
		out[ev.Name] = [2]int{in, pooled}
	}
	if len(out) != 2 {
		t.Fatalf("phase spans %v, want profile-layers and profile-pipelines", out)
	}
	return out
}

// TestInlineWalkTraceSplits reads the phase spans' task counts: a cold
// Run pools, a Run over a complete store pools nothing, and a store
// holding only the endpoint keys answers the endpoint wave inline and
// pools from the first ratio probe.
func TestInlineWalkTraceSplits(t *testing.T) {
	g, err := models.Build("mobilenet-v2", models.Options{Light: true})
	if err != nil {
		t.Fatal(err)
	}
	traced := func(store *profcache.Store) map[string][2]int {
		opts := DefaultOptions(PolicyPIMFlow)
		opts.Profiles, opts.Trace = store, obs.NewTrace()
		mustRun(t, g, opts)
		return phaseSplits(t, opts.Trace)
	}

	store := profcache.New()
	for phase, s := range traced(store) {
		if s[1] == 0 {
			t.Errorf("cold Run: %s pooled nothing (%d inline)", phase, s[0])
		}
	}
	full := DefaultOptions(PolicyPIMFlow)
	full.NoPrune, full.Profiles = true, store
	mustRun(t, g, full) // every probe's key, pruned or not
	for phase, s := range traced(store) {
		if s[1] != 0 || s[0] == 0 {
			t.Errorf("warm Run: %s ran %d tasks inline and %d pooled, want all inline", phase, s[0], s[1])
		}
	}

	partial := DefaultOptions(PolicyNewtonPlusPlus)
	partial.Profiles = profcache.New()
	mustRun(t, g, partial)
	s := traced(partial.Profiles)["profile-layers"]
	if s[0] < len(g.Nodes) || s[1] == 0 {
		t.Errorf("endpoint-warm Run: profile-layers ran %d tasks inline and %d pooled, want the %d endpoints inline and the grid pooled",
			s[0], s[1], len(g.Nodes))
	}
}

// fullBound is the pruning bound checked whole: the max of the GPU half's
// exact time and the PIM half's closed-form bound, plus the merge sync.
// ok is false where either side errs.
func (p *profiler) fullBound(sp mddpSplit) (lb int64, ok bool) {
	res, err := p.rt.GPU.Time(sp.gk)
	if err != nil {
		return 0, false
	}
	pl, err := codegen.BoundWorkload(sp.pw, p.rt.PIM, p.rt.Codegen)
	if err != nil {
		return 0, false
	}
	return max(res.Cycles, p.scalePIM(pl)) + p.rt.SyncOverheadCycles, true
}

// TestGPUFirstPruneMatchesFullBound walks every coarse and 2% grid point
// of the five CNNs' MD-DP candidates. At incumbents around each of the
// bound's terms, deciding on the GPU half first (exceeds) must discard
// exactly the points the whole bound discards.
func TestGPUFirstPruneMatchesFullBound(t *testing.T) {
	p := newProfiler(DefaultOptions(PolicyPIMFlow))
	sync := p.rt.SyncOverheadCycles
	points, gpuDecided := 0, 0
	for _, name := range models.EvaluatedCNNs() {
		g, err := models.Build(name, models.Options{Light: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := g.InferShapes(); err != nil {
			t.Fatal(err)
		}
		for _, n := range g.Nodes {
			if !g.IsPIMCandidate(n) {
				continue
			}
			for i := 1; i < 50; i++ {
				ratio := float64(i) * 0.02
				sp, err := p.mddpSplitOf(g, n, ratio)
				if err != nil {
					continue
				}
				full, ok := p.fullBound(sp)
				if !ok {
					t.Fatalf("%s %s at %v: the bound errs", name, n.Name, ratio)
				}
				gt, _ := p.rt.GPU.Time(sp.gk)
				pl, _ := codegen.BoundWorkload(sp.pw, p.rt.PIM, p.rt.Codegen)
				points++
				if gt.Cycles >= p.scalePIM(pl) {
					gpuDecided++
				}
				for _, edge := range []int64{full, gt.Cycles + sync, p.scalePIM(pl) + sync} {
					for _, inc := range []int64{edge - 1, edge, edge + 1} {
						if got, want := p.exceeds(sp, inc), full > inc; got != want {
							t.Errorf("%s %s at %v, incumbent %d: GPU-first prunes %v, the whole bound %v",
								name, n.Name, ratio, inc, got, want)
						}
					}
				}
				if p.exceeds(sp, math.MaxInt64) || !p.exceeds(sp, 0) {
					t.Errorf("%s %s at %v: the extreme incumbents decide wrongly", name, n.Name, ratio)
				}
			}
		}
	}
	t.Logf("%d grid points, the GPU half decides %d", points, gpuDecided)
	if points == 0 || gpuDecided == 0 || gpuDecided == points {
		t.Errorf("%d grid points, %d decided by the GPU half: the walk misses a side", points, gpuDecided)
	}
}
