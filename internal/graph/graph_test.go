package graph

import (
	"strings"
	"testing"

	"pimflow/internal/tensor"
)

func simpleConvGraph(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder("test", 1, 8, 8, 3)
	g, err := b.Conv(16, 3, 3, 1, 1, [4]int{1, 1, 1, 1}, 1).Relu().Finish()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuilderConvShapes(t *testing.T) {
	g := simpleConvGraph(t)
	out := g.Tensors[g.Outputs[0]]
	if !out.Shape.Equal(tensor.Shape{1, 8, 8, 16}) {
		t.Fatalf("output shape %v", out.Shape)
	}
	if len(g.Nodes) != 2 {
		t.Fatalf("want 2 nodes, got %d", len(g.Nodes))
	}
}

func TestConvParamsOf(t *testing.T) {
	g := simpleConvGraph(t)
	want := ConvParams{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadT: 1, PadL: 1, PadB: 1, PadR: 1, Group: 1}
	if p := g.Nodes[0].Conv; p != want {
		t.Fatalf("params %+v, want %+v", p, want)
	}
	if (g.Nodes[1].Conv != ConvParams{}) {
		t.Fatalf("Relu carries a window %+v", g.Nodes[1].Conv)
	}
}

// TestConvParamsDefaults: ReadJSON fills the ONNX defaults of the window
// attributes a document leaves out; a pool's strides default to its
// kernel.
func TestConvParamsDefaults(t *testing.T) {
	doc := `{"name":"g","inputs":["x"],"outputs":["y"],
	  "tensors":[{"name":"x","shape":[1,8,8,2]},{"name":"w","shape":[5,5,2,4],"param":true}],
	  "nodes":[{"name":"c","op":"Conv","inputs":["x","w"],"outputs":["c_out"],"ints":{"kernel_shape":[5,5]}},
	           {"name":"p","op":"MaxPool","inputs":["c_out"],"outputs":["y"],"ints":{"kernel_shape":[2,2]}}]}`
	g, err := ReadJSON(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if p := g.Nodes[0].Conv; p != (ConvParams{KernelH: 5, KernelW: 5, StrideH: 1, StrideW: 1, Group: 1}) {
		t.Fatalf("conv defaults %+v", p)
	}
	if p := g.Nodes[1].Conv; p.StrideH != 2 || p.StrideW != 2 || p.PadB != 0 {
		t.Fatalf("pool defaults %+v", p)
	}
}

func TestAttrsCloneIndependent(t *testing.T) {
	g := simpleConvGraph(t)
	n := g.Nodes[0]
	c := n.Clone()
	c.Conv.PadT, c.Elided, c.Inputs[0] = 7, true, "other"
	g.Clone().Nodes[0].Conv.StrideH = 3
	if n.Conv.PadT != 1 || n.Elided || n.Inputs[0] == "other" || n.Conv.StrideH != 1 {
		t.Fatalf("clone aliased original: %+v", n)
	}
}

func TestTopoSortStable(t *testing.T) {
	g := simpleConvGraph(t)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	if order[0].Name != g.Nodes[0].Name || order[1].Name != g.Nodes[1].Name {
		t.Fatal("already-sorted graph reordered")
	}
}

func TestTopoSortOutOfOrder(t *testing.T) {
	g := New("x")
	g.AddInput("in", 1, 4, 4, 2)
	// Insert consumer before producer.
	g.AddNode(&Node{Name: "b", Op: OpRelu, Inputs: []string{"mid"}, Outputs: []string{"out"}})
	g.AddNode(&Node{Name: "a", Op: OpSigmoid, Inputs: []string{"in"}, Outputs: []string{"mid"}})
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	if order[0].Name != "a" || order[1].Name != "b" {
		t.Fatalf("order %s,%s", order[0].Name, order[1].Name)
	}
}

func TestTopoSortCycle(t *testing.T) {
	g := New("cyc")
	g.AddNode(&Node{Name: "a", Op: OpRelu, Inputs: []string{"t2"}, Outputs: []string{"t1"}})
	g.AddNode(&Node{Name: "b", Op: OpRelu, Inputs: []string{"t1"}, Outputs: []string{"t2"}})
	if _, err := g.TopoSort(); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestTopoSortDuplicateProducer(t *testing.T) {
	g := New("dup")
	g.AddInput("in", 1, 2, 2, 1)
	g.AddNode(&Node{Name: "a", Op: OpRelu, Inputs: []string{"in"}, Outputs: []string{"t"}})
	g.AddNode(&Node{Name: "b", Op: OpRelu, Inputs: []string{"in"}, Outputs: []string{"t"}})
	if _, err := g.TopoSort(); err == nil {
		t.Fatal("duplicate producer not detected")
	}
}

func TestTopoSortUndeclaredInput(t *testing.T) {
	g := New("und")
	g.AddNode(&Node{Name: "a", Op: OpRelu, Inputs: []string{"ghost"}, Outputs: []string{"t"}})
	if _, err := g.TopoSort(); err == nil {
		t.Fatal("undeclared input not detected")
	}
}

func TestInferGemm(t *testing.T) {
	b := NewBuilder("g", 1, 2, 2, 4)
	g, err := b.Flatten().Gemm(10).Softmax().Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !g.Tensors[g.Outputs[0]].Shape.Equal(tensor.Shape{1, 10}) {
		t.Fatalf("shape %v", g.Tensors[g.Outputs[0]].Shape)
	}
}

func TestInferPoolAndGAP(t *testing.T) {
	b := NewBuilder("p", 1, 8, 8, 4)
	b.MaxPool(2, 2, [4]int{0, 0, 0, 0})
	g, err := b.GlobalAvgPool().Finish()
	if err != nil {
		t.Fatal(err)
	}
	mid := g.Tensors[g.Nodes[0].Outputs[0]]
	if !mid.Shape.Equal(tensor.Shape{1, 4, 4, 4}) {
		t.Fatalf("pool shape %v", mid.Shape)
	}
	if !g.Tensors[g.Outputs[0]].Shape.Equal(tensor.Shape{1, 1, 1, 4}) {
		t.Fatalf("gap shape %v", g.Tensors[g.Outputs[0]].Shape)
	}
}

func TestInferConcatSlicePad(t *testing.T) {
	g := New("csp")
	g.AddInput("in", 1, 6, 4, 2)
	g.AddNode(&Node{Name: "s1", Op: OpSlice, Inputs: []string{"in"}, Outputs: []string{"lo"}, Axis: 1, Start: 0, End: 2})
	g.AddNode(&Node{Name: "s2", Op: OpSlice, Inputs: []string{"in"}, Outputs: []string{"hi"}, Axis: 1, Start: 2, End: 6})
	g.AddNode(&Node{Name: "c", Op: OpConcat, Inputs: []string{"lo", "hi"}, Outputs: []string{"cat"}, Axis: 1})
	g.AddNode(&Node{Name: "p", Op: OpPad, Inputs: []string{"cat"}, Outputs: []string{"out"},
		Conv: ConvParams{PadT: 1, PadL: 2, PadB: 1, PadR: 2}})
	g.MarkOutput("out")
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	if !g.Tensors["cat"].Shape.Equal(tensor.Shape{1, 6, 4, 2}) {
		t.Fatalf("concat shape %v", g.Tensors["cat"].Shape)
	}
	if !g.Tensors["out"].Shape.Equal(tensor.Shape{1, 8, 8, 2}) {
		t.Fatalf("pad shape %v", g.Tensors["out"].Shape)
	}
}

func TestInferBroadcastSE(t *testing.T) {
	g := New("se")
	g.AddInput("x", 1, 7, 7, 32)
	g.AddInput("scale", 1, 1, 1, 32)
	g.AddNode(&Node{Name: "m", Op: OpMul, Inputs: []string{"x", "scale"}, Outputs: []string{"y"}})
	g.MarkOutput("y")
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	if !g.Tensors["y"].Shape.Equal(tensor.Shape{1, 7, 7, 32}) {
		t.Fatalf("shape %v", g.Tensors["y"].Shape)
	}
	// Incompatible broadcast must error.
	g2 := New("bad")
	g2.AddInput("a", 1, 7, 7, 32)
	g2.AddInput("b", 1, 7, 7, 16)
	g2.AddNode(&Node{Name: "m", Op: OpMul, Inputs: []string{"a", "b"}, Outputs: []string{"y"}})
	if err := g2.InferShapes(); err == nil {
		t.Fatal("incompatible broadcast accepted")
	}
}

func TestInferConvErrors(t *testing.T) {
	g := New("bad")
	g.AddInput("in", 1, 8, 8, 3)
	w := tensor.New(3, 3, 4, 16) // wrong Cin
	g.AddWeight("w", w)
	g.AddNode(&Node{Name: "c", Op: OpConv, Inputs: []string{"in", "w"}, Outputs: []string{"out"},
		Conv: ConvParams{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, Group: 1}})
	if err := g.InferShapes(); err == nil {
		t.Fatal("Cin mismatch accepted")
	}
}

func TestIsDepthwiseAndPIMCandidate(t *testing.T) {
	b := NewBuilder("dw", 1, 8, 8, 16)
	b.DepthwiseConv(3, 3, 1, 1, [4]int{1, 1, 1, 1})
	b.PointwiseConv(32)
	g, err := b.Flatten().Gemm(10).Finish()
	if err != nil {
		t.Fatal(err)
	}
	var dw, pw, fc *Node
	for _, n := range g.Nodes {
		switch {
		case n.Op == OpConv && dw == nil:
			dw = n
		case n.Op == OpConv:
			pw = n
		case n.Op == OpGemm:
			fc = n
		}
	}
	if !g.IsDepthwise(dw) {
		t.Error("depthwise conv not detected")
	}
	if g.IsDepthwise(pw) {
		t.Error("pointwise conv reported depthwise")
	}
	if g.IsPIMCandidate(dw) {
		t.Error("depthwise conv reported PIM candidate")
	}
	if !g.IsPIMCandidate(pw) || !g.IsPIMCandidate(fc) {
		t.Error("pointwise/FC not PIM candidates")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := simpleConvGraph(t)
	c := g.Clone()
	c.Nodes[0].Name = "renamed"
	c.Tensors["input"].Shape[1] = 99
	if g.Nodes[0].Name == "renamed" {
		t.Fatal("node aliased")
	}
	if g.Tensors["input"].Shape[1] == 99 {
		t.Fatal("tensor info aliased")
	}
}

func TestReplaceNodePreservesOrder(t *testing.T) {
	g := simpleConvGraph(t)
	r1 := &Node{Name: "x1", Op: OpIdentity, Inputs: []string{"input"}, Outputs: []string{"t1"}}
	r2 := &Node{Name: "x2", Op: OpIdentity, Inputs: []string{"t1"}, Outputs: []string{g.Nodes[0].Outputs[0]}}
	convName := g.Nodes[0].Name
	if err := g.ReplaceNode(convName, r1, r2); err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) != 3 || g.Nodes[0].Name != "x1" || g.Nodes[1].Name != "x2" {
		t.Fatalf("splice wrong: %v", g.Summary())
	}
	if err := g.ReplaceNode("missing", r1); err == nil {
		t.Fatal("missing node accepted")
	}
}

func TestProducerConsumers(t *testing.T) {
	g := simpleConvGraph(t)
	x := g.Index()
	convOut := g.Nodes[0].Outputs[0]
	if p := x.Producer(convOut); p == nil || p.Name != g.Nodes[0].Name {
		t.Fatal("wrong producer")
	}
	if p := x.Producer("input"); p != nil || x.ProducerPos("input") != -1 {
		t.Fatal("graph input has a producer")
	}
	cs := x.Consumers(convOut)
	if len(cs) != 1 || cs[0].Op != OpRelu {
		t.Fatal("wrong consumers")
	}
}

func TestValidateCatchesDuplicates(t *testing.T) {
	g := simpleConvGraph(t)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	g.Nodes[1].Name = g.Nodes[0].Name
	if err := g.Validate(); err == nil {
		t.Fatal("duplicate names accepted")
	}
}

func TestIndependentNodeFraction(t *testing.T) {
	// Straight line: no independent nodes.
	b := NewBuilder("line", 1, 4, 4, 2)
	g, err := b.Relu().Sigmoid().SiLU().Finish()
	if err != nil {
		t.Fatal(err)
	}
	f, err := g.IndependentNodeFraction()
	if err != nil {
		t.Fatal(err)
	}
	if f != 0 {
		t.Fatalf("straight line fraction %v", f)
	}
	// Diamond: two middle branches are independent.
	g2 := New("diamond")
	g2.AddInput("in", 1, 4, 4, 2)
	g2.AddNode(&Node{Name: "l", Op: OpRelu, Inputs: []string{"in"}, Outputs: []string{"a"}})
	g2.AddNode(&Node{Name: "r", Op: OpSigmoid, Inputs: []string{"in"}, Outputs: []string{"b"}})
	g2.AddNode(&Node{Name: "j", Op: OpAdd, Inputs: []string{"a", "b"}, Outputs: []string{"c"}})
	g2.MarkOutput("c")
	f2, err := g2.IndependentNodeFraction()
	if err != nil {
		t.Fatal(err)
	}
	if f2 <= 0.5 || f2 > 0.7 {
		t.Fatalf("diamond fraction %v, want 2/3", f2)
	}
}

func TestSummaryAndWeightBytes(t *testing.T) {
	g := simpleConvGraph(t)
	s := g.Summary()
	if !strings.Contains(s, "Conv") || !strings.Contains(s, "Relu") {
		t.Fatalf("summary missing ops:\n%s", s)
	}
	// conv weights 3*3*3*16 + bias 16 = 448 elems * 2 bytes
	if got := g.WeightBytes(); got != 896 {
		t.Fatalf("WeightBytes = %d", got)
	}
}

func TestExecHintStrings(t *testing.T) {
	if DeviceGPU.String() != "GPU" || DevicePIM.String() != "PIM" {
		t.Fatal("device strings")
	}
	if ModeSerial.String() != "serial" || ModeMDDP.String() != "md-dp" || ModePipeline.String() != "pipeline" {
		t.Fatal("mode strings")
	}
}

func TestBuilderSetCur(t *testing.T) {
	b := NewBuilder("sc", 1, 4, 4, 2)
	b.Relu()
	saved := b.Cur()
	b.Sigmoid()
	b.SetCur(saved)
	if b.Cur() != saved {
		t.Fatal("SetCur failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetCur of unknown tensor did not panic")
		}
	}()
	b.SetCur("nope")
}
