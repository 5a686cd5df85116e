package search

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"pimflow/internal/graph"
	"pimflow/internal/models"
	"pimflow/internal/profcache"
	"pimflow/internal/runtime"
	"pimflow/internal/transform"
	"pimflow/internal/verify"
)

// pipeCase is one pipelining candidate of a model, located in its
// topological order.
type pipeCase struct {
	g     *graph.Graph
	x     *graph.Index
	cand  transform.Candidate
	chain []*graph.Node
}

// zooPipeCases returns every consecutive pipelining candidate of the five
// evaluated CNNs (Light builds, shapes inferred).
func zooPipeCases(t *testing.T) []pipeCase {
	t.Helper()
	var out []pipeCase
	for _, name := range models.EvaluatedCNNs() {
		g, err := models.Build(name, models.Options{Light: true})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, pipeCases(t, g)...)
	}
	return out
}

func pipeCases(t *testing.T, g *graph.Graph) []pipeCase {
	t.Helper()
	x := g.Index()
	ord, err := x.InferShapes()
	if err != nil {
		t.Fatal(err)
	}
	order := make([]*graph.Node, len(ord))
	rank := make([]int, len(ord))
	for i, p := range ord {
		order[i], rank[p] = x.At(p), i
	}
	var out []pipeCase
	for _, cand := range transform.FindPipelineCandidates(x) {
		if start, length, ok := chainSpan(cand.Nodes, x, rank); ok {
			out = append(out, pipeCase{g: g, x: x, cand: cand, chain: order[start : start+length]})
		}
	}
	return out
}

// TestPipeEntriesMatchFreshProbes answers every pipelining candidate of
// the five CNNs at 2, 3 and 4 stages from one shared store, where a
// repeated signature is served by an entry another chain computed, and
// checks each answer against a fresh, uncached probe of the chain itself.
func TestPipeEntriesMatchFreshProbes(t *testing.T) {
	opts := DefaultOptions(PolicyPIMFlow)
	opts.Profiles = profcache.New()
	cached := newProfiler(opts)
	fresh := newProfiler(DefaultOptions(PolicyPIMFlow))
	freshByKey := map[profcache.Key]int64{}
	probes, repeats := 0, 0
	for _, c := range zooPipeCases(t) {
		for _, stages := range []int{2, 3, 4} {
			err := transform.CheckPipeline(c.x, c.cand.Nodes, stages)
			if errors.Is(err, transform.ErrNotPipelineable) {
				if _, perr := cached.pipeline(c.x, c.chain, c.cand, stages); !errors.Is(perr, transform.ErrNotPipelineable) {
					t.Errorf("%v at %d stages: probe = %v, want the rejection", c.cand.Nodes, stages, perr)
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.simulatePipeline(c.g, c.chain, c.cand.Nodes, stages)
			if err != nil {
				t.Fatalf("%v at %d stages: %v", c.cand.Nodes, stages, err)
			}
			got, err := cached.pipeline(c.x, c.chain, c.cand, stages)
			if err != nil {
				t.Fatalf("%v at %d stages: %v", c.cand.Nodes, stages, err)
			}
			if got != want {
				t.Errorf("%v at %d stages: store answered %d cycles, fresh probe %d", c.cand.Nodes, stages, got, want)
			}
			key := cached.pipeKeys.key(c.g, c.chain, stages)
			if prev, seen := freshByKey[key]; seen {
				repeats++
				if prev != want {
					t.Errorf("%v at %d stages: key shared with a chain of %d cycles, this one has %d", c.cand.Nodes, stages, prev, want)
				}
			}
			freshByKey[key] = want
			probes++
		}
	}
	t.Logf("%d probes, %d signatures, %d repeats", probes, len(freshByKey), repeats)
	if repeats == 0 {
		t.Error("no signature repeated: nothing exercised a shared entry")
	}
}

// pipeKeysDigest pins the text of every pipelining candidate key of the
// five CNNs at 2, 3 and 4 stages (339 keys, one per line), computed
// before the profile store took typed keys: saved logs hold these texts.
const pipeKeysDigest = "b88627f095546b73fa78d876c191b0b06dc5e9881dcebccd8c1a8163077cfed3"

func TestPipeKeysGolden(t *testing.T) {
	p := newProfiler(DefaultOptions(PolicyPIMFlow))
	h := sha256.New()
	n := 0
	for _, c := range zooPipeCases(t) {
		for _, stages := range []int{2, 3, 4} {
			fmt.Fprintln(h, p.pipeKeys.key(c.g, c.chain, stages))
			n++
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); n != 339 || got != pipeKeysDigest {
		t.Errorf("%d pipe keys with digest %s, want 339 with %s", n, got, pipeKeysDigest)
	}
}

// TestConcurrentRunsShareStore runs the five CNNs' searches from several
// goroutines at once over one cold store, so pipe/ computes wait on
// pim/ and gpu/ keys other goroutines have in flight: every plan must
// match the one a private store gives, and nothing may deadlock. Then
// warm Runs, answered inline, share a store with cold ones on the pool,
// which may hold a key in flight when an inline probe looks it up.
func TestConcurrentRunsShareStore(t *testing.T) {
	var graphs []*graph.Graph
	var want []*verify.PlanCertificate
	for _, name := range models.EvaluatedCNNs() {
		g, err := models.Build(name, models.Options{Light: true})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := Run(g, DefaultOptions(PolicyPIMFlow))
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
		want = append(want, plan.Certificate())
	}
	opts := DefaultOptions(PolicyPIMFlow)
	opts.Profiles = profcache.New()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range graphs {
				i := (i + w) % len(graphs)
				plan, err := Run(graphs[i], opts)
				if err != nil {
					t.Error(err)
					return
				}
				if got := plan.Certificate(); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("worker %d: %s plan differs over the shared store", w, got.Model)
				}
			}
		}(w)
	}
	wg.Wait()

	mixed := DefaultOptions(PolicyPIMFlow)
	mixed.Profiles = profcache.New()
	for _, g := range graphs[:2] {
		if _, err := Run(g, mixed); err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < 2; w++ {
		for i := range graphs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				plan, err := Run(graphs[i], mixed)
				if err != nil {
					t.Error(err)
					return
				}
				if got := plan.Certificate(); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("%s plan differs over a store warm for %s and %s", got.Model, graphs[0].Name, graphs[1].Name)
				}
			}(i)
		}
	}
	wg.Wait()
}

// TestConcurrentCompilesShareGraph compiles one built graph from two
// goroutines at once, under PIMFlow and Baseline, with no clone: a search
// only reads the caller's graph, so under -race any write to it is a
// reported data race. Both compiled graphs must match sequential ones.
func TestConcurrentCompilesShareGraph(t *testing.T) {
	g, err := models.Build("mobilenet-v2", models.Options{Light: true})
	if err != nil {
		t.Fatal(err)
	}
	policies := []Policy{PolicyPIMFlow, PolicyBaseline}
	got := make([]*graph.Graph, len(policies))
	var wg sync.WaitGroup
	for i, pol := range policies {
		wg.Add(1)
		go func(i int, pol Policy) {
			defer wg.Done()
			out, _, err := Compile(g, DefaultOptions(pol))
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = out
		}(i, pol)
	}
	wg.Wait()
	for i, pol := range policies {
		want, _, err := Compile(g, DefaultOptions(pol))
		if err != nil {
			t.Fatal(err)
		}
		if got[i] == nil || !reflect.DeepEqual(got[i].Nodes, want.Nodes) {
			t.Errorf("%v: the concurrent compile differs from a sequential one", pol)
		}
	}
}

// renamed returns a copy of g with every node and tensor renamed, the new
// names sorting in the reverse order of the old ones.
func renamed(g *graph.Graph) *graph.Graph {
	tn := map[string]string{}
	for name := range g.Tensors {
		tn[name] = ""
	}
	for _, n := range g.Nodes {
		tn[n.Name] = ""
	}
	names := make([]string, 0, len(tn))
	for name := range tn {
		names = append(names, name)
	}
	// The smallest old name gets the largest new one, so the new names
	// sort in the reverse order of the old ones.
	sort.Strings(names)
	for i, name := range names {
		tn[name] = "z" + strconv.Itoa(100000-i)
	}
	mapAll := func(in []string) []string {
		out := make([]string, len(in))
		for i, s := range in {
			out[i] = tn[s]
		}
		return out
	}
	c := graph.New(g.Name)
	c.Inputs, c.Outputs = mapAll(g.Inputs), mapAll(g.Outputs)
	for name, ti := range g.Tensors {
		c.Tensors[tn[name]] = &graph.TensorInfo{Name: tn[name], Shape: ti.Shape.Clone(), Init: ti.Init, Param: ti.Param}
	}
	for _, n := range g.Nodes {
		m := n.Clone()
		m.Name = tn[n.Name]
		m.Inputs, m.Outputs = mapAll(n.Inputs), mapAll(n.Outputs)
		c.Nodes = append(c.Nodes, m)
	}
	return c
}

// TestPipeKeyIgnoresNames renames every node and tensor of each CNN: each
// candidate's copy must get the same key and schedule the same cycles.
func TestPipeKeyIgnoresNames(t *testing.T) {
	p := newProfiler(DefaultOptions(PolicyPIMFlow))
	for _, name := range models.EvaluatedCNNs() {
		g, err := models.Build(name, models.Options{Light: true})
		if err != nil {
			t.Fatal(err)
		}
		orig := pipeCases(t, g)
		copies := pipeCases(t, renamed(g))
		if len(copies) != len(orig) {
			t.Fatalf("%s: %d candidates after renaming, want %d", name, len(copies), len(orig))
		}
		for i, c := range orig {
			r := copies[i]
			if k, rk := p.pipeKeys.key(c.g, c.chain, 2), p.pipeKeys.key(r.g, r.chain, 2); k != rk {
				t.Errorf("%s %v: renaming changed the key\n%s\n%s", name, c.cand.Nodes, k, rk)
			}
			want, werr := p.simulatePipeline(c.g, c.chain, c.cand.Nodes, 2)
			got, gerr := p.simulatePipeline(r.g, r.chain, r.cand.Nodes, 2)
			if got != want || (werr == nil) != (gerr == nil) {
				t.Errorf("%s %v: renamed copy = %d, %v; original = %d, %v", name, c.cand.Nodes, got, gerr, want, werr)
			}
		}
	}
}

// TestPipeKeySeparates checks that the key changes with any conv window
// field, a marker, a Clip bound, one weight dimension, the stage count,
// any exec-hint field, and any runtime configuration field the schedule
// depends on.
func TestPipeKeySeparates(t *testing.T) {
	g, err := models.Build("mobilenet-v2", models.Options{Light: true})
	if err != nil {
		t.Fatal(err)
	}
	cases := pipeCases(t, g)
	if len(cases) == 0 {
		t.Fatal("mobilenet-v2 has no pipelining candidates")
	}
	c := cases[0]
	rt := DefaultOptions(PolicyPIMFlow).RuntimeConfig()
	keys := newPipeKeys(rt)
	base := keys.key(c.g, c.chain, 2)
	if !strings.HasPrefix(base.String(), profcache.PipePrefix) {
		t.Fatalf("key %q outside the %s namespace", base, profcache.PipePrefix)
	}

	// mutated re-keys the candidate on a copy of its graph after edit.
	mutated := func(edit func(g *graph.Graph, chain []*graph.Node)) profcache.Key {
		cg := c.g.Clone()
		chain := make([]*graph.Node, len(c.chain))
		for i, n := range c.chain {
			chain[i] = cg.Node(n.Name)
		}
		edit(cg, chain)
		return keys.key(cg, chain, 2)
	}
	edits := map[string]func(*graph.Graph, []*graph.Node){
		"elided marker":    func(_ *graph.Graph, ch []*graph.Node) { ch[0].Elided = true },
		"mddp marker":      func(_ *graph.Graph, ch []*graph.Node) { ch[0].MDDP = true },
		"pipeline marker":  func(_ *graph.Graph, ch []*graph.Node) { ch[0].Pipelined = true },
		"clip upper bound": func(_ *graph.Graph, ch []*graph.Node) { ch[1].Max = 5 },
		"clip lower bound": func(_ *graph.Graph, ch []*graph.Node) { ch[1].Min = -1 },
		"weight dimension": func(g *graph.Graph, ch []*graph.Node) {
			g.Tensors[ch[0].Inputs[1]].Shape[3]++
		},
		"chain input shape": func(g *graph.Graph, ch []*graph.Node) {
			g.Tensors[ch[0].Inputs[0]].Shape[1]++
		},
		"weight becomes activation": func(g *graph.Graph, ch []*graph.Node) {
			w := g.Tensors[ch[0].Inputs[1]]
			w.Param, w.Init = false, nil
		},
		"op": func(_ *graph.Graph, ch []*graph.Node) { ch[len(ch)-1].Op = graph.OpGelu },
	}
	for name, edit := range edits {
		if mutated(edit) == base {
			t.Errorf("%s: key unchanged", name)
		}
	}
	if c.chain[0].Op != graph.OpConv || c.chain[1].Op != graph.OpClip {
		t.Fatalf("chain %v does not start with a Conv and a Clip", c.cand.Nodes)
	}
	for path, v := range fieldVariants(t, c.chain[0].Conv, nil) {
		p := v.(graph.ConvParams)
		if mutated(func(_ *graph.Graph, ch []*graph.Node) { ch[0].Conv = p }) == base {
			t.Errorf("ConvParams.%s: key unchanged", path)
		}
	}
	for path, v := range fieldVariants(t, graph.ExecHint{}, nil) {
		hint := v.(graph.ExecHint)
		if mutated(func(_ *graph.Graph, ch []*graph.Node) { ch[0].Exec = hint }) == base {
			t.Errorf("ExecHint.%s: key unchanged", path)
		}
	}
	if keys.key(c.g, c.chain, 3) == base {
		t.Error("stage count: key unchanged")
	}
	// Profiles, the trace and metrics sinks do not change the schedule.
	skip := map[string]bool{"Profiles": true, "Trace": true, "Metrics": true}
	for path, v := range fieldVariants(t, rt, skip) {
		if newPipeKeys(v.(runtime.Config)).key(c.g, c.chain, 2) == base {
			t.Errorf("runtime.Config.%s: key unchanged", path)
		}
	}
}

// TestPipelineProbeErrorsPropagate: a pipelining probe that fails for a
// reason other than a structural rejection fails the search. Here the
// depthwise conv of a 1x1-DW chain reads its weights from a graph input,
// which the probe's chain extraction cannot carry over; the search used
// to drop the candidate without a trace.
func TestPipelineProbeErrorsPropagate(t *testing.T) {
	b := graph.NewBuilder("dynamic-weights", 1, 16, 16, 32)
	b.Light = true
	b.PointwiseConv(64).Relu().DepthwiseConv(3, 3, 1, 1, [4]int{1, 1, 1, 1}).Relu().PointwiseConv(32)
	g := b.MustFinish()
	cases := pipeCases(t, g)
	if len(cases) == 0 {
		t.Fatal("no pipelining candidate")
	}
	for _, n := range g.Nodes {
		if g.IsDepthwise(n) {
			w := g.Tensors[n.Inputs[1]]
			w.Param, w.Init = false, nil
			g.Inputs = append(g.Inputs, w.Name)
		}
	}
	_, err := Run(g, DefaultOptions(PolicyPIMFlow))
	if err == nil || !strings.Contains(err.Error(), "pipeline profile") {
		t.Fatalf("Run = %v, want the pipeline probe's failure", err)
	}
	if errors.Is(err, transform.ErrNotPipelineable) {
		t.Fatalf("Run = %v: a real failure classified as a structural rejection", err)
	}
}

// TestPipelineRejectionsStaySilent: candidates the pipelining pass
// rejects structurally (here: more stages than output rows) are skipped,
// and the search still succeeds.
func TestPipelineRejectionsStaySilent(t *testing.T) {
	g, err := models.Build("mobilenet-v2", models.Options{Light: true})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(PolicyPIMFlow)
	opts.PipelineStages = 1000
	plan, err := Run(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Pipelines) != 0 {
		t.Errorf("%d pipelines profiled at 1000 stages, want 0", len(plan.Pipelines))
	}
}

// fieldVariants returns, per leaf field path of the struct v (nested
// structs are walked), a copy of v that differs in that field only.
// Fields named in skip are left out. A field of a kind it cannot vary
// fails the test, so no new field is skipped by accident.
func fieldVariants(t *testing.T, v any, skip map[string]bool) map[string]any {
	t.Helper()
	out := map[string]any{}
	root := reflect.ValueOf(v)
	var walk func(prefix string, index []int, typ reflect.Type)
	walk = func(prefix string, index []int, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			path := prefix + f.Name
			idx := append(append([]int(nil), index...), i)
			if skip[path] {
				continue
			}
			if f.Type.Kind() == reflect.Struct {
				walk(path+".", idx, f.Type)
				continue
			}
			c := reflect.New(root.Type()).Elem()
			c.Set(root)
			fv := c.FieldByIndex(idx)
			switch fv.Kind() {
			case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
				fv.SetInt(fv.Int() + 1)
			case reflect.Float32, reflect.Float64:
				fv.SetFloat(fv.Float()*1.5 + 0.25)
			case reflect.Bool:
				fv.SetBool(!fv.Bool())
			default:
				t.Fatalf("%s: cannot vary a %s field", path, fv.Kind())
			}
			out[path] = c.Interface()
		}
	}
	walk("", nil, root.Type())
	return out
}
