package transform

import (
	"testing"
	"testing/quick"

	"pimflow/internal/graph"
	"pimflow/internal/interp"
	"pimflow/internal/models"
	"pimflow/internal/tensor"
)

// runBoth executes the original and transformed graphs on the same input
// and reports whether outputs match.
func assertEquivalent(t *testing.T, orig, xform *graph.Graph, inShape tensor.Shape, seed int64, tol float64) {
	t.Helper()
	in := tensor.New(inShape...)
	in.FillRandom(seed)
	a, err := interp.RunSingle(orig, in)
	if err != nil {
		t.Fatalf("original: %v", err)
	}
	b, err := interp.RunSingle(xform, in.Clone())
	if err != nil {
		t.Fatalf("transformed: %v", err)
	}
	if !tensor.AllClose(a, b, tol) {
		t.Fatalf("outputs differ: max diff %v", tensor.MaxAbsDiff(a, b))
	}
}

func convGraph(t *testing.T, kh, stride, pad int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder("t", 1, 12, 10, 3)
	g, err := b.Conv(8, kh, kh, stride, stride, [4]int{pad, pad, pad, pad}, 1).Relu().Finish()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSplitMDDPConv1x1Equivalent(t *testing.T) {
	g := convGraph(t, 1, 1, 0)
	x := g.Clone()
	if err := SplitMDDP(x, x.Nodes[0].Name, 0.5); err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, g, x, tensor.Shape{1, 12, 10, 3}, 1, 1e-4)
}

func TestSplitMDDPConv3x3PaddedEquivalent(t *testing.T) {
	g := convGraph(t, 3, 1, 1)
	x := g.Clone()
	if err := SplitMDDP(x, x.Nodes[0].Name, 0.3); err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, g, x, tensor.Shape{1, 12, 10, 3}, 2, 1e-4)
}

func TestSplitMDDPConvStride2Equivalent(t *testing.T) {
	g := convGraph(t, 3, 2, 1)
	x := g.Clone()
	if err := SplitMDDP(x, x.Nodes[0].Name, 0.5); err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, g, x, tensor.Shape{1, 12, 10, 3}, 3, 1e-4)
}

func TestSplitMDDPGemmEquivalent(t *testing.T) {
	b := graph.NewBuilder("fc", 1, 2, 2, 4)
	g, err := b.Flatten().Gemm(20).Relu().Finish()
	if err != nil {
		t.Fatal(err)
	}
	var fc string
	for _, n := range g.Nodes {
		if n.Op == graph.OpGemm {
			fc = n.Name
		}
	}
	x := g.Clone()
	if err := SplitMDDP(x, fc, 0.4); err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, g, x, tensor.Shape{1, 2, 2, 4}, 4, 1e-4)
}

func TestSplitMDDPErrors(t *testing.T) {
	g := convGraph(t, 3, 1, 1)
	conv := g.Nodes[0].Name
	if err := SplitMDDP(g, "missing", 0.5); err == nil {
		t.Error("missing node accepted")
	}
	if err := SplitMDDP(g, g.Nodes[1].Name, 0.5); err == nil {
		t.Error("non-candidate (Relu) accepted")
	}
	if err := SplitMDDP(g, conv, 0); err == nil {
		t.Error("ratio 0 accepted")
	}
	if err := SplitMDDP(g, conv, 1); err == nil {
		t.Error("ratio 1 accepted")
	}
	// Depthwise is not a PIM candidate.
	bd := graph.NewBuilder("dw", 1, 8, 8, 4)
	gd, err := bd.DepthwiseConv(3, 3, 1, 1, [4]int{1, 1, 1, 1}).Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := SplitMDDP(gd, gd.Nodes[0].Name, 0.5); err == nil {
		t.Error("depthwise conv accepted")
	}
}

func TestSplitMDDPStructure(t *testing.T) {
	g := convGraph(t, 3, 1, 1)
	conv := g.Nodes[0].Name
	if err := SplitMDDP(g, conv, 0.5); err != nil {
		t.Fatal(err)
	}
	var gpuPart, pimPart *graph.Node
	for _, n := range g.Nodes {
		if n.Name == conv+"_gpu" {
			gpuPart = n
		}
		if n.Name == conv+"_pim" {
			pimPart = n
		}
	}
	if gpuPart == nil || pimPart == nil {
		t.Fatalf("missing parts:\n%s", g.Summary())
	}
	if gpuPart.Exec.Mode != graph.ModeMDDP || gpuPart.Exec.Device != graph.DeviceGPU {
		t.Errorf("gpu part hint %+v", gpuPart.Exec)
	}
	if pimPart.Exec.Device != graph.DevicePIM {
		t.Errorf("pim part hint %+v", pimPart.Exec)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// The ratio controls the output-row split; the GPU part must get
// round(OH * ratio) rows.
func TestSplitMDDPRatioRows(t *testing.T) {
	g := convGraph(t, 1, 1, 0) // OH = 12
	conv := g.Nodes[0].Name
	if err := SplitMDDP(g, conv, 0.3); err != nil {
		t.Fatal(err)
	}
	gpuOut := g.Tensors[conv+"_gpu_out"]
	if gpuOut.Shape[1] != 4 { // round(12*0.3) = 4
		t.Fatalf("gpu rows %d, want 4", gpuOut.Shape[1])
	}
}

// Property: for any kernel/stride/pad/ratio combination, MD-DP conv split
// preserves semantics exactly.
func TestPropertySplitConvEquivalent(t *testing.T) {
	f := func(seed int64, kRaw, sRaw, rRaw, hRaw uint8) bool {
		k := []int{1, 3, 5}[int(kRaw)%3]
		s := []int{1, 2}[int(sRaw)%2]
		pad := k / 2
		h := int(hRaw%8) + 8
		ratio := float64(int(rRaw%9)+1) / 10
		b := graph.NewBuilder("p", 1, h, 6, 2)
		g, err := b.Conv(4, k, k, s, s, [4]int{pad, pad, pad, pad}, 1).Finish()
		if err != nil {
			return false
		}
		x := g.Clone()
		if err := SplitMDDP(x, x.Nodes[0].Name, ratio); err != nil {
			// Tiny outputs may not split at extreme ratios; that is a
			// rejection, not a wrong answer.
			return true
		}
		in := tensor.New(1, h, 6, 2)
		in.FillRandom(seed)
		a, err1 := interp.RunSingle(g, in)
		bOut, err2 := interp.RunSingle(x, in.Clone())
		return err1 == nil && err2 == nil && tensor.AllClose(a, bOut, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func mobileBlockGraph(t *testing.T) *graph.Graph {
	t.Helper()
	// 1x1 expand -> ReLU6 -> DW 3x3 -> ReLU6 -> 1x1 project.
	b := graph.NewBuilder("mb", 1, 14, 14, 8)
	b.PointwiseConv(16).Relu6()
	b.DepthwiseConv(3, 3, 1, 1, [4]int{1, 1, 1, 1}).Relu6()
	b.PointwiseConv(8)
	g, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func chainNames(g *graph.Graph) []string {
	var names []string
	for _, n := range g.Nodes {
		names = append(names, n.Name)
	}
	return names
}

func TestPipelineChainEquivalentTwoStage(t *testing.T) {
	g := mobileBlockGraph(t)
	x := g.Clone()
	// Full 1x1-DW-1x1 chain with interleaved activations.
	if err := PipelineChain(x, chainNames(x), 2, 0); err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, g, x, tensor.Shape{1, 14, 14, 8}, 5, 1e-4)
}

func TestPipelineChainEquivalentFourStage(t *testing.T) {
	g := mobileBlockGraph(t)
	x := g.Clone()
	if err := PipelineChain(x, chainNames(x), 4, 1); err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, g, x, tensor.Shape{1, 14, 14, 8}, 6, 1e-4)
}

func TestPipelineTwoNodeChain(t *testing.T) {
	b := graph.NewBuilder("c2", 1, 10, 10, 4)
	b.PointwiseConv(8)
	b.DepthwiseConv(3, 3, 1, 1, [4]int{1, 1, 1, 1})
	g, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	x := g.Clone()
	if err := PipelineChain(x, chainNames(x), 2, 0); err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, g, x, tensor.Shape{1, 10, 10, 4}, 7, 1e-4)
	if err := x.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineStride2DW(t *testing.T) {
	b := graph.NewBuilder("c2s", 1, 16, 12, 4)
	b.PointwiseConv(8)
	b.DepthwiseConv(3, 3, 2, 2, [4]int{1, 1, 1, 1})
	g, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	x := g.Clone()
	if err := PipelineChain(x, chainNames(x), 2, 0); err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, g, x, tensor.Shape{1, 16, 12, 4}, 8, 1e-4)
}

func TestPipelineHints(t *testing.T) {
	g := mobileBlockGraph(t)
	if err := PipelineChain(g, chainNames(g), 2, 7); err != nil {
		t.Fatal(err)
	}
	pimParts, gpuParts := 0, 0
	for _, n := range g.Nodes {
		if n.Exec.Mode != graph.ModePipeline {
			continue
		}
		if n.Exec.Pipeline.GroupID != 7 || n.Exec.Pipeline.Parts != 2 {
			t.Errorf("node %q hint %+v", n.Name, n.Exec.Pipeline)
		}
		if n.Exec.Device == graph.DevicePIM {
			pimParts++
		} else {
			gpuParts++
		}
	}
	// 2 pointwise convs x 2 chunks on PIM; DW conv and 2 activations x 2
	// chunks on GPU.
	if pimParts != 4 {
		t.Errorf("pim parts %d, want 4", pimParts)
	}
	if gpuParts != 6 {
		t.Errorf("gpu parts %d, want 6", gpuParts)
	}
}

func TestPipelineErrors(t *testing.T) {
	g := mobileBlockGraph(t)
	if err := PipelineChain(g, []string{g.Nodes[0].Name}, 2, 0); err == nil {
		t.Error("single-node chain accepted")
	}
	if err := PipelineChain(g, chainNames(g), 1, 0); err == nil {
		t.Error("1 stage accepted")
	}
	if err := PipelineChain(g, []string{"a", "b"}, 2, 0); err == nil {
		t.Error("missing nodes accepted")
	}
	// Non-consecutive nodes.
	names := chainNames(g)
	if err := PipelineChain(g, []string{names[0], names[4]}, 2, 0); err == nil {
		t.Error("non-consecutive chain accepted")
	}
	// Too many stages for a tiny spatial size.
	b := graph.NewBuilder("tiny", 1, 3, 3, 2)
	b.PointwiseConv(4)
	b.DepthwiseConv(3, 3, 1, 1, [4]int{1, 1, 1, 1})
	gt, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := PipelineChain(gt, chainNames(gt), 8, 0); err == nil {
		t.Error("8 stages over 3 rows accepted")
	}
}

func TestFindPipelineCandidates(t *testing.T) {
	g, err := models.Build("mobilenet-v2", models.Options{Light: true})
	if err != nil {
		t.Fatal(err)
	}
	cands := FindPipelineCandidates(g.Index())
	if len(cands) == 0 {
		t.Fatal("no candidates in MobileNetV2")
	}
	counts := map[PatternType]int{}
	for _, c := range cands {
		counts[c.Pattern]++
		if len(c.Nodes) < 2 {
			t.Errorf("candidate %v too short", c)
		}
	}
	// MobileNetV2's inverted residuals contain every pattern type.
	for _, p := range []PatternType{Pattern1x1DW, PatternDW1x1, Pattern1x1DW1x1} {
		if counts[p] == 0 {
			t.Errorf("pattern %s not found (have %v)", p, counts)
		}
	}
}

func TestFindPipelineCandidatesApplicable(t *testing.T) {
	// Every candidate found in a small MobileNetV2 must actually pipeline
	// and preserve semantics.
	g, err := models.Build("mobilenet-v2", models.Options{Resolution: 32})
	if err != nil {
		t.Fatal(err)
	}
	cands := FindPipelineCandidates(g.Index())
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	tested := 0
	for i, c := range cands {
		if tested >= 3 {
			break
		}
		x := g.Clone()
		if err := PipelineChain(x, c.Nodes, 2, i); err != nil {
			// Tiny late-stage feature maps may reject; skip those.
			continue
		}
		assertEquivalent(t, g, x, tensor.Shape{1, 32, 32, 3}, int64(i), 1e-3)
		tested++
	}
	if tested == 0 {
		t.Fatal("no candidate could be applied")
	}
}

func TestElideDataMovement(t *testing.T) {
	g := convGraph(t, 3, 1, 1)
	conv := g.Nodes[0].Name
	if err := SplitMDDP(g, conv, 0.5); err != nil {
		t.Fatal(err)
	}
	n := ElideDataMovement(g)
	// Two slices + one concat.
	if n != 3 {
		t.Fatalf("elided %d nodes, want 3:\n%s", n, g.Summary())
	}
	for _, nd := range g.Nodes {
		if nd.Op == graph.OpSlice || nd.Op == graph.OpConcat {
			if !nd.Elided {
				t.Errorf("node %q not elided", nd.Name)
			}
		}
	}
}

func TestElideGemmConcat(t *testing.T) {
	b := graph.NewBuilder("fc", 1, 2, 2, 4)
	g, err := b.Flatten().Gemm(20).Finish()
	if err != nil {
		t.Fatal(err)
	}
	var fc string
	for _, n := range g.Nodes {
		if n.Op == graph.OpGemm {
			fc = n.Name
		}
	}
	if err := SplitMDDP(g, fc, 0.5); err != nil {
		t.Fatal(err)
	}
	if n := ElideDataMovement(g); n != 1 {
		t.Fatalf("elided %d, want 1 (the [1,N] concat)", n)
	}
}

func TestElideDoesNotTouchChannelConcat(t *testing.T) {
	g := graph.New("cc")
	g.AddInput("a", 1, 4, 4, 2)
	g.AddInput("b", 1, 4, 4, 3)
	g.AddNode(&graph.Node{Name: "c", Op: graph.OpConcat, Inputs: []string{"a", "b"}, Outputs: []string{"out"}, Axis: 3})
	g.MarkOutput("out")
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	if ElideDataMovement(g) != 0 {
		t.Fatal("channel concat wrongly elided")
	}
}

// Splitting plus eliding must still be semantics-preserving (elision only
// affects cost attributes, not execution).
func TestSplitThenElideStillEquivalent(t *testing.T) {
	g := convGraph(t, 3, 1, 1)
	x := g.Clone()
	if err := SplitMDDP(x, x.Nodes[0].Name, 0.6); err != nil {
		t.Fatal(err)
	}
	ElideDataMovement(x)
	assertEquivalent(t, g, x, tensor.Shape{1, 12, 10, 3}, 9, 1e-4)
}

// Applying MD-DP to every candidate node of the Toy model at once must
// preserve end-to-end semantics.
func TestSplitAllCandidatesToy(t *testing.T) {
	g, err := models.Build("toy", models.Options{})
	if err != nil {
		t.Fatal(err)
	}
	x := g.Clone()
	var candidates []string
	for _, n := range x.Nodes {
		if x.IsPIMCandidate(n) && n.Op == graph.OpConv {
			candidates = append(candidates, n.Name)
		}
	}
	if len(candidates) < 3 {
		t.Fatalf("toy has %d conv candidates", len(candidates))
	}
	for _, name := range candidates {
		if err := SplitMDDP(x, name, 0.5); err != nil {
			t.Fatalf("split %q: %v", name, err)
		}
	}
	ElideDataMovement(x)
	assertEquivalent(t, g, x, tensor.Shape{1, 32, 32, 3}, 10, 1e-3)
}

// Property: pipelining random conv chains at random stage counts
// preserves semantics whenever the pass accepts the chain.
func TestPropertyPipelineEquivalent(t *testing.T) {
	f := func(seed int64, hRaw, cRaw, kRaw, stRaw uint8) bool {
		h := int(hRaw%10) + 8
		c := int(cRaw%6) + 2
		k := []int{1, 3}[int(kRaw)%2]
		stages := int(stRaw%3) + 2
		b := graph.NewBuilder("pp", 1, h, h, c)
		b.PointwiseConv(c * 2)
		b.DepthwiseConv(k, k, 1, 1, [4]int{k / 2, k / 2, k / 2, k / 2})
		g, err := b.Finish()
		if err != nil {
			return false
		}
		x := g.Clone()
		var names []string
		for _, n := range x.Nodes {
			names = append(names, n.Name)
		}
		if err := PipelineChain(x, names, stages, 0); err != nil {
			return true // rejected (e.g. too few rows) is fine
		}
		in := tensor.New(1, h, h, c)
		in.FillRandom(seed)
		a, err1 := interp.RunSingle(g, in)
		bOut, err2 := interp.RunSingle(x, in.Clone())
		return err1 == nil && err2 == nil && tensor.AllClose(a, bOut, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
