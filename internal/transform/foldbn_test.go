package transform

import (
	"fmt"
	"testing"

	"pimflow/internal/graph"
	"pimflow/internal/interp"
	"pimflow/internal/tensor"
)

// bnGraph builds conv -> BN -> relu with real weights and randomized BN
// statistics.
func bnGraph(t *testing.T, withConvBias bool) *graph.Graph {
	t.Helper()
	g := graph.New("bn")
	g.AddInput("in", 1, 8, 8, 3)
	w := tensor.New(3, 3, 3, 6)
	w.FillRandom(1)
	g.AddWeight("w", w)
	convInputs := []string{"in", "w"}
	if withConvBias {
		b := tensor.New(6)
		b.FillRandom(2)
		g.AddWeight("cb", b)
		convInputs = append(convInputs, "cb")
	}
	g.AddNode(&graph.Node{Name: "conv", Op: graph.OpConv, Inputs: convInputs, Outputs: []string{"c"},
		Conv: graph.ConvParams{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadT: 1, PadL: 1, PadB: 1, PadR: 1, Group: 1}})

	mk := func(name string, seed int64, offset float32) {
		p := tensor.New(6)
		p.FillRandom(seed)
		for i := range p.Data {
			p.Data[i] = p.Data[i]*0.5 + offset
		}
		g.AddWeight(name, p)
	}
	mk("scale", 3, 1) // ~1 +- 0.5
	mk("bias", 4, 0)  // ~0
	mk("mean", 5, 0)  // ~0
	mk("var", 6, 1.5) // positive
	g.AddNode(&graph.Node{Name: "bn", Op: graph.OpBatchNorm, Inputs: []string{"c", "scale", "bias", "mean", "var"}, Outputs: []string{"n"},
		Epsilon: 1e-5})
	g.AddNode(&graph.Node{Name: "relu", Op: graph.OpRelu, Inputs: []string{"n"}, Outputs: []string{"out"}})
	g.MarkOutput("out")
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFoldBatchNormEquivalent(t *testing.T) {
	for _, withBias := range []bool{false, true} {
		g := bnGraph(t, withBias)
		x := g.Clone()
		n, err := FoldBatchNorm(x)
		if err != nil {
			t.Fatal(err)
		}
		if n != 1 {
			t.Fatalf("folded %d BNs, want 1", n)
		}
		for _, nd := range x.Nodes {
			if nd.Op == graph.OpBatchNorm {
				t.Fatal("BN still present after fold")
			}
		}
		in := tensor.New(1, 8, 8, 3)
		in.FillRandom(7)
		a, err := interp.RunSingle(g, in)
		if err != nil {
			t.Fatal(err)
		}
		b, err := interp.RunSingle(x, in.Clone())
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.AllClose(a, b, 1e-4) {
			t.Fatalf("withBias=%v: folding changed semantics, max diff %v", withBias, tensor.MaxAbsDiff(a, b))
		}
	}
}

func TestFoldBatchNormSkipsMultiConsumer(t *testing.T) {
	g := bnGraph(t, false)
	// Add a second consumer of the conv output.
	g.AddNode(&graph.Node{Name: "extra", Op: graph.OpRelu, Inputs: []string{"c"}, Outputs: []string{"e"}})
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	n, err := FoldBatchNorm(g)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatal("folded a BN whose conv has other consumers")
	}
}

func TestFoldBatchNormLightGraph(t *testing.T) {
	// Shape-only params: structural fold must still remove the BN and
	// keep the graph valid.
	g := graph.New("light")
	g.AddInput("in", 1, 4, 4, 2)
	g.AddParam("w", 1, 1, 2, 4)
	g.AddNode(&graph.Node{Name: "conv", Op: graph.OpConv, Inputs: []string{"in", "w"}, Outputs: []string{"c"}, Conv: pointwise})
	for _, p := range []string{"s", "b", "m", "v"} {
		g.AddParam(p, 4)
	}
	bn := &graph.Node{Name: "bn", Op: graph.OpBatchNorm, Inputs: []string{"c", "s", "b", "m", "v"}, Outputs: []string{"out"}}
	g.AddNode(bn)
	g.MarkOutput("out")
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	n, err := FoldBatchNorm(g)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("folded %d, want 1", n)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// The conv gained a bias slot and produces the output directly.
	if len(g.Node("conv").Inputs) != 3 || g.Node("conv").Outputs[0] != "out" {
		t.Fatalf("structural fold wrong: %v", g.Summary())
	}
}

func TestFoldBatchNormChain(t *testing.T) {
	// Two conv+BN pairs fold in one call.
	g := graph.New("chain")
	g.AddInput("in", 1, 6, 6, 2)
	addPair := func(idx int, input string, cin, cout int) string {
		w := tensor.New(1, 1, cin, cout)
		w.FillRandom(int64(idx))
		wName := namef("w%d", idx)
		g.AddWeight(wName, w)
		g.AddNode(&graph.Node{Name: namef("conv%d", idx), Op: graph.OpConv, Inputs: []string{input, wName}, Outputs: []string{namef("c%d", idx)},
			Conv: pointwise})
		for _, p := range []string{"s", "b", "m", "v"} {
			pt := tensor.New(cout)
			pt.Fill(1)
			g.AddWeight(namef("%s%d", p, idx), pt)
		}
		bn := &graph.Node{
			Name: namef("bn%d", idx), Op: graph.OpBatchNorm,
			Inputs:  []string{namef("c%d", idx), namef("s%d", idx), namef("b%d", idx), namef("m%d", idx), namef("v%d", idx)},
			Outputs: []string{namef("n%d", idx)},
		}
		g.AddNode(bn)
		return namef("n%d", idx)
	}
	mid := addPair(1, "in", 2, 4)
	out := addPair(2, mid, 4, 8)
	g.MarkOutput(out)
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	n, err := FoldBatchNorm(g)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("folded %d, want 2", n)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// pointwise is the window of an unpadded unit-stride 1x1 convolution.
var pointwise = graph.ConvParams{KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1, Group: 1}

func namef(format string, args ...any) string {
	return fmt.Sprintf(format, args...)
}
