package search

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"pimflow/internal/graph"
	"pimflow/internal/models"
	"pimflow/internal/profcache"
	"pimflow/internal/tensor"
	"pimflow/internal/transform"
	"pimflow/internal/verify"
)

// referenceApply is the Apply the one-pass build replaced: clone the
// model, splice each chosen pipeline and each MD-DP split into the clone
// (resolving chains and decision nodes through one index of it), and
// infer the whole graph's shapes at the end, or after every rewrite under
// Verify. after, when not nil, sees the graph after each rewrite (after
// its inference, under Verify).
func referenceApply(g *graph.Graph, plan *Plan, after func(*graph.Graph)) (*graph.Graph, error) {
	verifyStep := func(out *graph.Graph, step string, args ...any) error {
		if !plan.Options.Verify {
			return nil
		}
		diags := verify.Graph(out)
		if err := verify.AsError(diags); err != nil {
			return fmt.Errorf("search: graph invariants violated %s: %w", fmt.Sprintf(step, args...), err)
		}
		return nil
	}
	out := g.Clone()
	if err := verifyStep(out, "before transformation"); err != nil {
		return nil, err
	}
	x := out.Index()
	pipelined := map[string]bool{}
	groupID := 0
	for _, pd := range plan.Pipelines {
		if !pd.Chosen {
			continue
		}
		for _, n := range pd.Candidate.Nodes {
			if pipelined[n] {
				return nil, fmt.Errorf("search: apply pipeline %v: node %q is in an earlier pipeline", pd.Candidate.Nodes, n)
			}
			pipelined[n] = true
		}
		err := spliceChain(x, pd.Candidate.Nodes, pd.Stages, groupID)
		if err == nil && plan.Options.Verify {
			err = out.InferShapes()
		}
		if err != nil {
			return nil, fmt.Errorf("search: apply pipeline %v: %w", pd.Candidate.Nodes, err)
		}
		if after != nil {
			after(out)
		}
		if err := verifyStep(out, "after pipelining %v", pd.Candidate.Nodes); err != nil {
			return nil, err
		}
		groupID++
	}
	for _, d := range plan.Decisions {
		if !d.PIMCandidate || pipelined[d.Node] || d.GPURatio >= 1 {
			continue
		}
		n := x.Node(d.Node)
		if n == nil {
			return nil, fmt.Errorf("search: node %q vanished", d.Node)
		}
		if d.GPURatio <= 0 {
			n.Exec = graph.ExecHint{Mode: graph.ModeSerial, Device: graph.DevicePIM}
			continue
		}
		err := spliceSplit(out, n, d.GPURatio)
		if err == nil && plan.Options.Verify {
			err = out.InferShapes()
		}
		if err != nil {
			return nil, fmt.Errorf("search: apply split %q: %w", d.Node, err)
		}
		if after != nil {
			after(out)
		}
		if err := verifyStep(out, "after MD-DP split of %q", d.Node); err != nil {
			return nil, err
		}
	}
	if err := out.InferShapes(); err != nil {
		return nil, err
	}
	transform.ElideDataMovement(out)
	if err := verifyStep(out, "after data-movement elision"); err != nil {
		return nil, err
	}
	return out, nil
}

// spliceChain replaces the chain's first node of the graph x indexes
// with its pipeline stage nodes and drops the chain's other nodes.
func spliceChain(x *graph.Index, names []string, stages, groupID int) error {
	repl, err := transform.PipelineStages(x, names, stages, groupID)
	if err != nil {
		return err
	}
	g := x.Graph()
	if err := g.ReplaceNode(names[0], repl...); err != nil {
		return err
	}
	for _, name := range names[1:] {
		g.RemoveNode(name)
	}
	return nil
}

// spliceSplit replaces n with its MD-DP parts and adds their weights.
func spliceSplit(g *graph.Graph, n *graph.Node, gpuRatio float64) error {
	nodes, weights, err := transform.MDDPParts(g, n, gpuRatio)
	if err != nil {
		return err
	}
	for _, w := range weights {
		g.Tensors[w.Name] = w
	}
	return g.ReplaceNode(n.Name, nodes...)
}

// snapshot renders everything a compiled graph carries: its WriteJSON
// bytes, each node's Exec hint and Elided flag (WriteJSON omits hints),
// and every tensor's shape.
func snapshot(t *testing.T, g *graph.Graph) string {
	t.Helper()
	var b bytes.Buffer
	if err := g.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Nodes {
		fmt.Fprintf(&b, "%s %+v elided=%v\n", n.Name, n.Exec, n.Elided)
	}
	for _, name := range g.TensorNames() {
		fmt.Fprintf(&b, "%s %v\n", name, g.Tensors[name].Shape)
	}
	return b.String()
}

// firstDiff returns the first line where a and b differ.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range min(len(al), len(bl)) {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n got %.300s\nwant %.300s", i, al[i], bl[i])
		}
	}
	return fmt.Sprintf("%d lines vs %d", len(al), len(bl))
}

// applyModels returns the five CNNs and toy: Light, except toy, whose
// real weights make a Gemm split copy weight data.
func applyModels(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	gs := map[string]*graph.Graph{}
	for _, name := range append(models.EvaluatedCNNs(), "toy") {
		g, err := models.Build(name, models.Options{Light: name != "toy"})
		if err != nil {
			t.Fatal(err)
		}
		gs[name] = g
	}
	return gs
}

// checkApply compares Apply with referenceApply on one plan: equal
// errors, or equal snapshots. It returns Apply's error.
func checkApply(t *testing.T, key string, g *graph.Graph, plan *Plan) error {
	t.Helper()
	got, gotErr := Apply(g, plan)
	want, wantErr := referenceApply(g, plan, nil)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Errorf("%s: Apply error %v, reference %v", key, gotErr, wantErr)
	} else if wantErr == nil {
		if gs, ws := snapshot(t, got), snapshot(t, want); gs != ws {
			t.Errorf("%s: Apply differs from the reference: %s", key, firstDiff(gs, ws))
		}
	}
	return gotErr
}

// gemmSplitPlan is a toy plan that splits the Gemm at 0.4 and leaves
// everything else on the GPU.
func gemmSplitPlan(t *testing.T, g *graph.Graph) *Plan {
	t.Helper()
	plan, err := Run(g, DefaultOptions(PolicyMDDP))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i := range plan.Decisions {
		d := &plan.Decisions[i]
		d.GPURatio = 1
		if d.Op == graph.OpGemm {
			d.PIMCandidate, d.GPURatio, found = true, 0.4, true
		}
	}
	if !found {
		t.Fatal("toy has no Gemm decision")
	}
	return plan
}

// TestApplyMatchesReference holds the one-pass Apply to the
// clone-and-splice one it replaced: the same compiled graph (WriteJSON
// bytes, hints, elision and every shape) for the five CNNs and toy under
// every policy, a toy Gemm split over real weights, and hand-made plans
// that reach each error path, with Verify off and on.
func TestApplyMatchesReference(t *testing.T) {
	store := profcache.New()
	for name, g := range applyModels(t) {
		for _, pol := range Policies() {
			opts := DefaultOptions(pol)
			opts.Profiles = store
			plan, err := Run(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range []bool{false, true} {
				plan.Options.Verify = v
				checkApply(t, fmt.Sprintf("%s/%v/verify=%v", name, pol, v), g, plan)
			}
		}
	}

	toy, err := models.Build("toy", models.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mobilenet, err := models.Build("mobilenet-v2", models.Options{Light: true})
	if err != nil {
		t.Fatal(err)
	}
	mnPlan, err := Run(mobilenet, DefaultOptions(PolicyPIMFlow))
	if err != nil {
		t.Fatal(err)
	}
	firstSplit := func(p *Plan) *LayerDecision {
		for i := range p.Decisions {
			if d := &p.Decisions[i]; d.PIMCandidate && d.GPURatio > 0 && d.GPURatio < 1 {
				return d
			}
		}
		t.Fatal("no MD-DP decision")
		return nil
	}
	cases := []struct {
		name string
		g    *graph.Graph
		edit func(*Plan)
		want string // in the error; empty: Apply succeeds
	}{
		{"gemm split", toy, func(*Plan) {}, ""},
		{"overlapping pipelines", mobilenet, func(p *Plan) {
			anchored := map[string]int{}
			for i := range p.Pipelines {
				pd := &p.Pipelines[i]
				anchored[pd.Candidate.Nodes[0]]++
				pd.Chosen = anchored[pd.Candidate.Nodes[0]] <= 2
			}
		}, "is in an earlier pipeline"},
		{"repeated chain node", mobilenet, func(p *Plan) {
			p.Pipelines = append(p.Pipelines, PipelineDecision{Candidate: transform.Candidate{Nodes: []string{"ghost", "ghost"}}, Stages: 2, Chosen: true})
		}, `node "ghost" is in an earlier pipeline`},
		{"unknown chain node", mobilenet, func(p *Plan) {
			p.Pipelines = append(p.Pipelines, PipelineDecision{Candidate: transform.Candidate{Nodes: []string{"ghost", "ghoul"}}, Stages: 2, Chosen: true})
		}, `search: apply pipeline [ghost ghoul]: transform: node "ghost" not found`},
		{"unpipelineable chain", mobilenet, func(p *Plan) {
			p.Pipelines = append(p.Pipelines, PipelineDecision{Candidate: transform.Candidate{Nodes: []string{mobilenet.Nodes[0].Name}}, Stages: 2, Chosen: true})
		}, "not pipelineable"},
		{"vanished node", mobilenet, func(p *Plan) {
			p.Decisions = append(p.Decisions, LayerDecision{Node: "ghost", PIMCandidate: true, GPURatio: 0.5})
		}, `search: node "ghost" vanished`},
		{"split of a non-candidate", mobilenet, func(p *Plan) {
			for i := range p.Decisions {
				if d := &p.Decisions[i]; d.Op == graph.OpRelu || d.Op == graph.OpClip {
					d.PIMCandidate, d.GPURatio = true, 0.5
					return
				}
			}
		}, "is not a PIM candidate"},
		{"unsplittable ratio", mobilenet, func(p *Plan) { firstSplit(p).GPURatio = 1e-6 }, "cannot split at ratio"},
		{"split twice", mobilenet, func(p *Plan) {
			p.Decisions = append(p.Decisions, *firstSplit(p))
		}, "not found"},
		{"hint then split", mobilenet, func(p *Plan) {
			d := *firstSplit(p)
			d.GPURatio = 0
			p.Decisions = append([]LayerDecision{d}, p.Decisions...)
		}, ""},
		{"split then hint", mobilenet, func(p *Plan) {
			d := *firstSplit(p)
			d.GPURatio = 0
			p.Decisions = append(p.Decisions, d, d)
		}, ""},
	}
	for _, c := range cases {
		var plan *Plan
		if c.g == toy {
			plan = gemmSplitPlan(t, toy)
		} else {
			p := *mnPlan
			p.Decisions = append([]LayerDecision(nil), mnPlan.Decisions...)
			p.Pipelines = append([]PipelineDecision(nil), mnPlan.Pipelines...)
			plan = &p
		}
		c.edit(plan)
		for _, v := range []bool{false, true} {
			plan.Options.Verify = v
			key := fmt.Sprintf("%s/verify=%v", c.name, v)
			err := checkApply(t, key, c.g, plan)
			switch {
			case c.want == "" && err != nil:
				t.Errorf("%s: %v", key, err)
			case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
				t.Errorf("%s: error %v, want it to contain %q", key, err, c.want)
			}
		}
	}
}

// TestApplyPrefixesMatchReference holds the graphs Verify checks to the
// ones it checked before: after each of a plan's rewrites, the build over
// the rewrites resolved so far equals the clone-and-splice graph after
// that rewrite, for the five CNNs and toy under PIMFlow, MD-DP and the
// pipelining policy.
func TestApplyPrefixesMatchReference(t *testing.T) {
	store := profcache.New()
	for name, g := range applyModels(t) {
		for _, pol := range []Policy{PolicyPIMFlow, PolicyMDDP, PolicyPipeline} {
			key := fmt.Sprintf("%s/%v", name, pol)
			opts := DefaultOptions(pol)
			opts.Profiles = store
			plan, err := Run(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			plan.Options.Verify = true
			var want []string
			if _, err := referenceApply(g, plan, func(out *graph.Graph) { want = append(want, snapshot(t, out)) }); err != nil {
				t.Fatal(err)
			}
			var got []string
			a := newApplier(g)
			got = append(got, snapshot(t, a.build()))
			if err := a.resolve(plan, func(*rewrite) error {
				out := a.build()
				if err := a.infer(out, true); err != nil {
					return err
				}
				got = append(got, snapshot(t, out))
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if before := snapshot(t, g.Clone()); got[0] != before {
				t.Errorf("%s: the build before any rewrite differs from the clone: %s", key, firstDiff(got[0], before))
			}
			got = got[1:]
			if len(got) != len(want) || len(want) == 0 && pol != PolicyPipeline {
				t.Fatalf("%s: %d prefix builds, the reference made %d rewrites", key, len(got), len(want))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Errorf("%s: after rewrite %d: %s", key, k+1, firstDiff(got[k], want[k]))
				}
			}
		}
	}
}

// TestApplyLeavesSourceUntouched checks that the compiled graph shares no
// node, name list or tensor record with the model: after re-inferring the
// compiled graph with every node output's shape cleared, and then
// overwriting every node,
// name list and tensor record in it, the model reads as before.
func TestApplyLeavesSourceUntouched(t *testing.T) {
	for name, g := range applyModels(t) {
		var plan *Plan
		if name == "toy" {
			plan = gemmSplitPlan(t, g)
		} else {
			var err error
			if plan, err = Run(g, DefaultOptions(PolicyPIMFlow)); err != nil {
				t.Fatal(err)
			}
		}
		before := snapshot(t, g)
		out, err := Apply(g, plan)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range out.Nodes {
			for _, o := range n.Outputs {
				out.Tensors[o].Shape = nil
			}
		}
		if err := out.InferShapes(); err != nil {
			t.Fatalf("%s: re-inferring the compiled graph: %v", name, err)
		}
		for _, n := range out.Nodes {
			n.Name, n.Op = "mutated", graph.OpIdentity
			n.Conv.PadT, n.Axis, n.Elided, n.MDDP = 9, 9, true, true
			n.Exec = graph.ExecHint{Mode: graph.ModePipeline, Device: graph.DevicePIM, GPURatio: 0.5}
			for i := range n.Inputs {
				n.Inputs[i] = "mutated"
			}
			for i := range n.Outputs {
				n.Outputs[i] = "mutated"
			}
		}
		for _, ti := range out.Tensors {
			ti.Name, ti.Shape, ti.Init, ti.Param = "mutated", tensor.Shape{9}, nil, !ti.Param
		}
		for i := range out.Inputs {
			out.Inputs[i] = "mutated"
		}
		for i := range out.Outputs {
			out.Outputs[i] = "mutated"
		}
		if after := snapshot(t, g); after != before {
			t.Errorf("%s: the model changed under its compiled graph: %s", name, firstDiff(after, before))
		}
	}
}

// TestApplyUnshapedSource gives Apply a model whose activations carry no
// shapes, as one built by hand and never searched: it must infer the
// whole graph as the clone-and-splice Apply did, so a plan of full-PIM
// hints compiles to the same graph and a split fails the same way.
func TestApplyUnshapedSource(t *testing.T) {
	g := toyGraph(t)
	plan, err := Run(g, DefaultOptions(PolicyMDDP))
	if err != nil {
		t.Fatal(err)
	}
	bare := g.Clone()
	for _, n := range bare.Nodes {
		bare.Tensors[n.Outputs[0]].Shape = nil
	}
	hints := *plan
	hints.Decisions = append([]LayerDecision(nil), plan.Decisions...)
	for i := range hints.Decisions {
		if d := &hints.Decisions[i]; d.PIMCandidate {
			d.GPURatio = 0
		}
	}
	for _, p := range []*Plan{&hints, gemmSplitPlan(t, g)} {
		for _, v := range []bool{false, true} {
			p.Options.Verify = v
			checkApply(t, fmt.Sprintf("unshaped/verify=%v", v), bare, p)
		}
	}
}

// TestApplyChecksRewriteOutputs forges a model whose recorded output
// shape of an MD-DP node disagrees with its input: the parts re-create
// the output at another shape, which the copied nodes after it would not
// read, so Apply must name the split instead of compiling.
func TestApplyChecksRewriteOutputs(t *testing.T) {
	g := toyGraph(t)
	plan, err := Run(g, DefaultOptions(PolicyMDDP))
	if err != nil {
		t.Fatal(err)
	}
	var split *LayerDecision
	for i := range plan.Decisions {
		if d := &plan.Decisions[i]; d.Op == graph.OpConv && d.PIMCandidate {
			d.GPURatio, split = 0.5, d
			break
		}
	}
	if split == nil {
		t.Fatal("toy has no PIM-candidate conv")
	}
	forged := g.Clone()
	ti := forged.Tensors[forged.Node(split.Node).Outputs[0]]
	ti.Shape = tensor.Shape{ti.Shape[0], ti.Shape[1], ti.Shape[2] + 1, ti.Shape[3]}
	want := fmt.Sprintf("search: apply split %q: output %q re-created at shape", split.Node, ti.Name)
	if _, err := Apply(forged, plan); err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Errorf("Apply = %v, want an error starting %q", err, want)
	}
}

// TestApplyRejectsActivationFirstChain gives Apply a persisted plan
// edited so that a chosen pipeline starts with an activation, as a plan
// file read back by pimflow -m=run can be: Apply must return an error
// naming the node, not panic.
func TestApplyRejectsActivationFirstChain(t *testing.T) {
	g, err := models.Build("mobilenet-v2", models.Options{Light: true})
	if err != nil {
		t.Fatal(err)
	}
	searched, err := Run(g, DefaultOptions(PolicyPIMFlow))
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(searched)
	if err != nil {
		t.Fatal(err)
	}
	var plan Plan
	if err := json.Unmarshal(data, &plan); err != nil {
		t.Fatal(err)
	}
	var edited *PipelineDecision
	for i := range plan.Pipelines {
		if pd := &plan.Pipelines[i]; pd.Chosen && len(pd.Candidate.Nodes) > 2 {
			edited = pd
			break
		}
	}
	if edited == nil {
		t.Fatal("mobilenet-v2's plan chose no pipeline of three or more nodes")
	}
	// Drop the leading conv: the chain now starts with its activation.
	edited.Candidate.Nodes = edited.Candidate.Nodes[1:]
	edited.StartIdx, edited.Len = edited.StartIdx+1, edited.Len-1
	first := edited.Candidate.Nodes[0]
	if op := g.Node(first).Op; op != graph.OpClip {
		t.Fatalf("edited chain starts with %s, want an activation", op)
	}
	_, err = Apply(g, &plan)
	if !errors.Is(err, transform.ErrNotPipelineable) || !strings.Contains(err.Error(), fmt.Sprintf("%q", first)) {
		t.Errorf("Apply = %v, want ErrNotPipelineable naming %q", err, first)
	}
}

// BenchmarkApplyZoo times Apply alone: the PIMFlow plans of the five
// Light CNNs, each applied once per op.
func BenchmarkApplyZoo(b *testing.B) {
	var gs []*graph.Graph
	var plans []*Plan
	for _, name := range models.EvaluatedCNNs() {
		g, err := models.Build(name, models.Options{Light: true})
		if err != nil {
			b.Fatal(err)
		}
		plan, err := Run(g, DefaultOptions(PolicyPIMFlow))
		if err != nil {
			b.Fatal(err)
		}
		gs, plans = append(gs, g), append(plans, plan)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, g := range gs {
			if _, err := Apply(g, plans[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
}
