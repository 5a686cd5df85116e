package transform

import (
	"testing"

	"pimflow/internal/graph"
)

func TestEliminateDeadNodes(t *testing.T) {
	g := graph.New("dce")
	g.AddInput("in", 1, 4, 4, 2)
	g.AddNode(&graph.Node{Name: "live", Op: graph.OpRelu, Inputs: []string{"in"}, Outputs: []string{"a"}})
	g.AddNode(&graph.Node{Name: "dead1", Op: graph.OpSigmoid, Inputs: []string{"in"}, Outputs: []string{"d1"}})
	// dead2 consumes dead1's output: both must go (fixpoint).
	g.AddNode(&graph.Node{Name: "dead2", Op: graph.OpRelu, Inputs: []string{"d1"}, Outputs: []string{"d2"}})
	g.MarkOutput("a")
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	// dead2's output is unconsumed; after it goes, dead1 becomes dead too.
	if n := EliminateDeadNodes(g); n != 2 {
		t.Fatalf("removed %d, want 2", n)
	}
	if len(g.Nodes) != 1 || g.Nodes[0].Name != "live" {
		t.Fatalf("wrong survivors:\n%s", g.Summary())
	}
	// Idempotent.
	if n := EliminateDeadNodes(g); n != 0 {
		t.Fatalf("second pass removed %d", n)
	}
}

func TestEliminateDeadNodesKeepsOutputs(t *testing.T) {
	g := graph.New("keep")
	g.AddInput("in", 1, 2, 2, 1)
	g.AddNode(&graph.Node{Name: "tail", Op: graph.OpRelu, Inputs: []string{"in"}, Outputs: []string{"out"}})
	g.MarkOutput("out")
	if n := EliminateDeadNodes(g); n != 0 {
		t.Fatalf("removed %d output-producing nodes", n)
	}
}
