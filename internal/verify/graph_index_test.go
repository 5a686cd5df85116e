package verify_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pimflow/internal/graph"
	"pimflow/internal/models"
	"pimflow/internal/search"
	"pimflow/internal/verify"
)

func sameTopology(t *testing.T, what string, g *graph.Graph) []verify.Diagnostic {
	t.Helper()
	got, want := verify.CheckTopology(g), verify.ReferenceCheckTopology(g)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: checkTopology differs from the reference\ngot:  %v\nwant: %v", what, got, want)
	}
	return got
}

// TestCheckTopologyMatchesReferenceOnModels runs both walks over the five
// paper CNNs, raw and compiled under every policy: all clean.
func TestCheckTopologyMatchesReferenceOnModels(t *testing.T) {
	for _, name := range models.EvaluatedCNNs() {
		g, err := models.Build(name, models.Options{Light: true})
		if err != nil {
			t.Fatal(err)
		}
		sameTopology(t, name, g)
		for pol := search.PolicyBaseline; pol <= search.PolicyPIMFlow; pol++ {
			out, _, err := search.Compile(g, search.DefaultOptions(pol))
			if err != nil {
				t.Fatalf("%s/%v: %v", name, pol, err)
			}
			if diags := sameTopology(t, name+"/"+pol.String(), out); len(diags) > 0 {
				t.Errorf("%s/%v: %v", name, pol, diags)
			}
		}
	}
}

// forgedTopology builds a graph of up to 20 Identity nodes in shuffled
// order with repeated inputs, duplicate producers (also within one
// node), undeclared inputs and, when forward reads are allowed, cycles.
func forgedTopology(rng *rand.Rand) *graph.Graph {
	g := graph.New("forged")
	g.AddInput("in", 1, 2, 2, 1)
	n := 1 + rng.Intn(20)
	forward := rng.Intn(3) == 0
	out := func(i int) string { return fmt.Sprintf("t%d", i) }
	for i := 0; i < n; i++ {
		nd := &graph.Node{Name: fmt.Sprintf("n%d", i), Op: graph.OpIdentity, Outputs: []string{out(i)}}
		switch r := rng.Intn(20); {
		case r == 0 && i > 0:
			nd.Outputs[0] = out(rng.Intn(i))
		case r == 1:
			nd.Outputs = append(nd.Outputs, out(i))
		}
		for k := rng.Intn(4); k > 0; k-- {
			switch r := rng.Intn(100); {
			case r < 60 && i > 0:
				nd.Inputs = append(nd.Inputs, out(rng.Intn(i)))
			case r < 72 && forward:
				nd.Inputs = append(nd.Inputs, out(rng.Intn(n)))
			case r < 82:
				nd.Inputs = append(nd.Inputs, "in")
			case r < 85:
				nd.Inputs = append(nd.Inputs, fmt.Sprintf("ghost%d", rng.Intn(3)))
			case len(nd.Inputs) > 0:
				nd.Inputs = append(nd.Inputs, nd.Inputs[0])
			}
		}
		g.AddNode(nd)
	}
	rng.Shuffle(len(g.Nodes), func(i, j int) { g.Nodes[i], g.Nodes[j] = g.Nodes[j], g.Nodes[i] })
	return g
}

// TestCheckTopologyMatchesReferenceForged compares the two walks on 2500
// seeded forged graphs, and checks each rule fired on many of them.
func TestCheckTopologyMatchesReferenceForged(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	fired := map[string]int{}
	for i := 0; i < 2500; i++ {
		seen := map[string]bool{}
		for _, d := range sameTopology(t, fmt.Sprintf("graph %d", i), forgedTopology(rng)) {
			seen[d.Rule] = true
		}
		for rule := range seen {
			fired[rule]++
		}
	}
	t.Logf("graphs per rule: %v", fired)
	for _, rule := range []string{verify.RuleGraphProducerDup, verify.RuleGraphTensorUndecl, verify.RuleGraphCycle} {
		if fired[rule] < 100 {
			t.Errorf("%s fired on only %d forged graphs", rule, fired[rule])
		}
	}
}

// TestPipelineDiagnosticsSorted checks that GR-PIPE-PARTS and
// GR-PIPE-ORDER come out in (group, stage, part) order, identically on
// every call: six groups each miss one chunk, and one node consumes three
// chunks of its own stage.
func TestPipelineDiagnosticsSorted(t *testing.T) {
	g := graph.New("pipe")
	g.AddInput("x", 1, 4, 4, 2)
	hint := func(group, stage, part, parts int) graph.ExecHint {
		return graph.ExecHint{Mode: graph.ModePipeline,
			Pipeline: graph.PipelineHint{GroupID: group, Stage: stage, Part: part, Parts: parts}}
	}
	var want []verify.Diagnostic
	for group := 5; group >= 0; group-- {
		missing := (group*7 + 1) % 4
		for part := 0; part < 4; part++ {
			if part == missing {
				continue
			}
			name := fmt.Sprintf("g%dp%d", group, part)
			g.AddNode(&graph.Node{Name: name, Op: graph.OpRelu, Inputs: []string{"x"},
				Outputs: []string{name + "_out"}, Exec: hint(group, 1, part, 4)})
		}
	}
	for group := 0; group < 6; group++ {
		want = append(want, verify.Diagnostic{Rule: verify.RuleGraphPipeParts, Channel: -1, Index: -1,
			Msg: fmt.Sprintf("group %d stage 1 is missing chunk %d of 4", group, (group*7+1)%4)})
	}
	for part := 2; part >= 0; part-- {
		name := fmt.Sprintf("g9p%d", part)
		g.AddNode(&graph.Node{Name: name, Op: graph.OpRelu, Inputs: []string{"x"},
			Outputs: []string{name + "_out"}, Exec: hint(9, 0, part, 3)})
	}
	g.AddNode(&graph.Node{Name: "merge", Op: graph.OpConcat,
		Inputs: []string{"g9p2_out", "g9p0_out", "g9p1_out"}, Outputs: []string{"merged"}, Axis: 1})
	g.AddNode(&graph.Node{Name: "late", Op: graph.OpRelu, Inputs: []string{"merged"},
		Outputs: []string{"y"}, Exec: hint(9, 0, 0, 3)})
	g.MarkOutput("y")
	for part := 0; part < 3; part++ {
		want = append(want, verify.Diagnostic{Rule: verify.RuleGraphPipeOrder, Node: "late", Channel: -1, Index: -1,
			Msg: fmt.Sprintf("chunk (stage 0, part 0) consumes chunk (stage 0, part %d) of group 9", part)})
	}
	for i := 0; i < 50; i++ {
		if got := verify.Graph(g); !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d:\ngot:  %v\nwant: %v", i, got, want)
		}
	}
}
