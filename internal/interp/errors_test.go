package interp

import (
	"testing"

	"pimflow/internal/graph"
	"pimflow/internal/tensor"
)

// buildOne wraps a single prepared node into a runnable graph.
func buildOne(t *testing.T, n *graph.Node, inputs map[string]tensor.Shape) *graph.Graph {
	t.Helper()
	g := graph.New("one")
	for name, s := range inputs {
		g.AddInput(name, s...)
	}
	g.AddNode(n)
	g.MarkOutput(n.Outputs[0])
	return g
}

func TestEvalNodeMissingInput(t *testing.T) {
	n := &graph.Node{Name: "r", Op: graph.OpRelu, Inputs: []string{"ghost"}, Outputs: []string{"o"}}
	g := graph.New("g")
	g.Tensors["ghost"] = &graph.TensorInfo{Name: "ghost", Shape: tensor.Shape{1, 1, 1, 1}}
	g.AddNode(n)
	g.MarkOutput("o")
	if _, err := Run(g, map[string]*tensor.Tensor{}); err == nil {
		t.Fatal("missing tensor accepted")
	}
}

func TestUnsupportedOp(t *testing.T) {
	n := &graph.Node{Name: "x", Op: graph.OpType("Quantum"), Inputs: []string{"in"}, Outputs: []string{"o"}}
	g := buildOne(t, n, map[string]tensor.Shape{"in": {1, 1, 1, 1}})
	in := tensor.New(1, 1, 1, 1)
	if _, err := Run(g, map[string]*tensor.Tensor{"in": in}); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestRunMultiInputGraph(t *testing.T) {
	g := graph.New("mi")
	g.AddInput("a", 1, 2, 2, 1)
	g.AddInput("b", 1, 2, 2, 1)
	g.AddNode(&graph.Node{Name: "add", Op: graph.OpAdd, Inputs: []string{"a", "b"}, Outputs: []string{"o"}})
	g.MarkOutput("o")
	a := tensor.New(1, 2, 2, 1)
	a.Fill(2)
	b := tensor.New(1, 2, 2, 1)
	b.Fill(3)
	outs, err := Run(g, map[string]*tensor.Tensor{"a": a, "b": b})
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Data[0] != 5 {
		t.Fatalf("add = %v", outs[0].Data[0])
	}
}

func TestRunSingleRejectsMultiInput(t *testing.T) {
	g := graph.New("mi")
	g.AddInput("a", 1)
	g.AddInput("b", 1)
	g.AddNode(&graph.Node{Name: "add", Op: graph.OpAdd, Inputs: []string{"a", "b"}, Outputs: []string{"o"}})
	g.MarkOutput("o")
	if _, err := RunSingle(g, tensor.New(1)); err == nil {
		t.Fatal("multi-input graph accepted by RunSingle")
	}
}

func TestSlice2DAndConcat2D(t *testing.T) {
	g := graph.New("s2")
	g.AddInput("in", 1, 6)
	g.AddNode(&graph.Node{Name: "s1", Op: graph.OpSlice, Inputs: []string{"in"}, Outputs: []string{"lo"}, Axis: 1, End: 2})
	g.AddNode(&graph.Node{Name: "s2", Op: graph.OpSlice, Inputs: []string{"in"}, Outputs: []string{"hi"}, Axis: 1, Start: 2, End: 6})
	g.AddNode(&graph.Node{Name: "c", Op: graph.OpConcat, Inputs: []string{"lo", "hi"}, Outputs: []string{"o"}, Axis: 1})
	g.MarkOutput("o")
	in := tensor.New(1, 6)
	in.FillRandom(1)
	outs, err := Run(g, map[string]*tensor.Tensor{"in": in})
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(in, outs[0], 0) {
		t.Fatal("2-D slice+concat not identity")
	}
}

func TestBatchNormErrors(t *testing.T) {
	// Wrong parameter count handled at shape inference; wrong channel
	// count at eval time.
	g := graph.New("bn")
	g.AddInput("x", 1, 2, 2, 3)
	for _, p := range []string{"s", "b", "m", "v"} {
		g.AddWeight(p, tensor.New(2)) // C mismatch: 2 vs 3
	}
	n := &graph.Node{Name: "bn", Op: graph.OpBatchNorm, Inputs: []string{"x", "s", "b", "m", "v"}, Outputs: []string{"o"}}
	g.AddNode(n)
	g.MarkOutput("o")
	x := tensor.New(1, 2, 2, 3)
	if _, err := Run(g, map[string]*tensor.Tensor{"x": x}); err == nil {
		t.Fatal("BN channel mismatch accepted")
	}
}

func TestGapRejectsNonNHWC(t *testing.T) {
	n := &graph.Node{Name: "g", Op: graph.OpGlobalAvgPool, Inputs: []string{"in"}, Outputs: []string{"o"}}
	g := buildOne(t, n, map[string]tensor.Shape{"in": {2, 3}})
	if _, err := Run(g, map[string]*tensor.Tensor{"in": tensor.New(2, 3)}); err == nil {
		t.Fatal("rank-2 GAP accepted")
	}
}

func TestTransposeRejectsRank3(t *testing.T) {
	n := &graph.Node{Name: "t", Op: graph.OpTranspose, Inputs: []string{"in"}, Outputs: []string{"o"}}
	g := buildOne(t, n, map[string]tensor.Shape{"in": {2, 3, 4}})
	if _, err := Run(g, map[string]*tensor.Tensor{"in": tensor.New(2, 3, 4)}); err == nil {
		t.Fatal("rank-3 transpose accepted")
	}
}
