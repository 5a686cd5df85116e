package models

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"pimflow/internal/graph"
	"pimflow/internal/interp"
	"pimflow/internal/tensor"
)

func paramCount(g *graph.Graph) int64 {
	var p int64
	for _, ti := range g.Tensors {
		if ti.IsWeight() {
			p += int64(ti.Shape.Elems())
		}
	}
	return p
}

func opCounts(g *graph.Graph) (convs, dws, fcs int) {
	for _, n := range g.Nodes {
		switch n.Op {
		case graph.OpConv:
			if g.IsDepthwise(n) {
				dws++
			} else {
				convs++
			}
		case graph.OpGemm:
			fcs++
		}
	}
	return
}

// Golden parameter counts: folded-BN inference graphs of the reference
// architectures. Published totals: ENetB0 5.3M, MnasNet1.0 4.4M, MBNetV2
// 3.5M, ResNet50 25.6M, VGG16 138.4M.
func TestGoldenParamCounts(t *testing.T) {
	cases := []struct {
		name   string
		params int64
	}{
		{"efficientnet-v1-b0", 5267540},
		{"mnasnet-1.0", 4364352},
		{"mobilenet-v2", 3487816},
		{"resnet-18", 11684712},
		{"resnet-34", 21789160},
		{"resnet-50", 25530472},
		{"vgg-16", 138357544},
		{"bert-base", 85017600},
		{"toy", 3914},
	}
	for _, c := range cases {
		g, err := Build(c.name, Options{Light: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := paramCount(g); got != c.params {
			t.Errorf("%s params = %d, want %d", c.name, got, c.params)
		}
	}
}

func TestGoldenLayerCounts(t *testing.T) {
	cases := []struct {
		name            string
		convs, dws, fcs int
	}{
		{"efficientnet-v1-b0", 65, 16, 1},
		{"mnasnet-1.0", 35, 17, 1},
		{"mobilenet-v2", 35, 17, 1},
		{"resnet-50", 53, 0, 1},
		{"vgg-16", 13, 0, 3},
		{"bert-base", 0, 0, 72},
	}
	for _, c := range cases {
		g, err := Build(c.name, Options{Light: true})
		if err != nil {
			t.Fatal(err)
		}
		convs, dws, fcs := opCounts(g)
		if convs != c.convs || dws != c.dws || fcs != c.fcs {
			t.Errorf("%s layers = (%d conv, %d dw, %d fc), want (%d, %d, %d)",
				c.name, convs, dws, fcs, c.convs, c.dws, c.fcs)
		}
	}
}

func TestAllModelsValidate(t *testing.T) {
	for _, name := range Names() {
		g, err := Build(name, Options{Light: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestClassifierOutputShapes(t *testing.T) {
	for _, name := range EvaluatedCNNs() {
		g, err := Build(name, Options{Light: true})
		if err != nil {
			t.Fatal(err)
		}
		out := g.Tensors[g.Outputs[0]].Shape
		if !out.Equal(tensor.Shape{1, 1000}) {
			t.Errorf("%s output %v, want [1 1000]", name, out)
		}
	}
}

func TestUnknownModel(t *testing.T) {
	if _, err := Build("alexnet", Options{}); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestResNet50SpatialPyramid(t *testing.T) {
	g, err := Build("resnet-50", Options{Light: true})
	if err != nil {
		t.Fatal(err)
	}
	// The last conv output before GAP must be 7x7x2048.
	var lastConv *graph.Node
	for _, n := range g.Nodes {
		if n.Op == graph.OpConv {
			lastConv = n
		}
	}
	s := g.Tensors[lastConv.Outputs[0]].Shape
	if !s.Equal(tensor.Shape{1, 7, 7, 2048}) {
		t.Fatalf("final conv shape %v, want [1 7 7 2048]", s)
	}
}

func TestMobileNetV2FinalFeatures(t *testing.T) {
	g, err := Build("mobilenet-v2", Options{Light: true})
	if err != nil {
		t.Fatal(err)
	}
	var lastConv *graph.Node
	for _, n := range g.Nodes {
		if n.Op == graph.OpConv {
			lastConv = n
		}
	}
	s := g.Tensors[lastConv.Outputs[0]].Shape
	if !s.Equal(tensor.Shape{1, 7, 7, 1280}) {
		t.Fatalf("final conv shape %v, want [1 7 7 1280]", s)
	}
}

func TestEfficientNetScaledGrowth(t *testing.T) {
	variants := []string{"b0", "b1", "b2", "b3", "b4", "b5", "b6"}
	var prev int64
	for _, v := range variants {
		g, err := EfficientNetScaled(v, Options{Light: true})
		if err != nil {
			t.Fatal(err)
		}
		p := paramCount(g)
		if p <= prev {
			t.Errorf("EfficientNet-%s params %d not larger than previous %d", v, p, prev)
		}
		prev = p
	}
	if _, err := EfficientNetScaled("b9", Options{Light: true}); err == nil {
		t.Fatal("unknown variant accepted")
	}
}

func TestEfficientNetNativeResolutions(t *testing.T) {
	g, err := EfficientNetScaled("b3", Options{Light: true})
	if err != nil {
		t.Fatal(err)
	}
	in := g.Tensors[g.Inputs[0]].Shape
	if in[1] != 300 {
		t.Fatalf("B3 resolution %d, want 300", in[1])
	}
}

func TestBERTSeqLen(t *testing.T) {
	for _, seq := range []int{3, 64} {
		g, err := Build("bert-base", Options{Light: true, SeqLen: seq})
		if err != nil {
			t.Fatal(err)
		}
		out := g.Tensors[g.Outputs[0]].Shape
		if !out.Equal(tensor.Shape{seq, 768}) {
			t.Errorf("seq %d output %v", seq, out)
		}
	}
}

func TestResolutionOverride(t *testing.T) {
	g, err := Build("mobilenet-v2", Options{Light: true, Resolution: 96})
	if err != nil {
		t.Fatal(err)
	}
	if g.Tensors["input"].Shape[1] != 96 {
		t.Fatal("resolution override ignored")
	}
	if !g.Tensors[g.Outputs[0]].Shape.Equal(tensor.Shape{1, 1000}) {
		t.Fatal("96px MobileNetV2 classifier broken")
	}
}

// Functional execution of the Toy model (full weights) must produce a
// softmax distribution.
func TestToyRunsFunctionally(t *testing.T) {
	g := Toy(Options{})
	in := tensor.New(1, 32, 32, 3)
	in.FillRandom(1)
	out, err := interp.RunSingle(g, in)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range out.Data {
		if v < 0 {
			t.Fatal("negative probability")
		}
		sum += float64(v)
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("softmax sum %v", sum)
	}
}

// A reduced-resolution MobileNetV2 with real weights must execute
// functionally end to end (exercises depthwise, residual, ReLU6, GAP).
func TestMobileNetV2RunsFunctionallySmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full functional run in -short mode")
	}
	g, err := Build("mobilenet-v2", Options{Resolution: 32})
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(1, 32, 32, 3)
	in.FillRandom(2)
	out, err := interp.RunSingle(g, in)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Shape.Equal(tensor.Shape{1, 1000}) {
		t.Fatalf("output %v", out.Shape)
	}
}

func TestResNetBasicBlockCounts(t *testing.T) {
	g18, err := Build("resnet-18", Options{Light: true})
	if err != nil {
		t.Fatal(err)
	}
	convs, dws, fcs := opCounts(g18)
	// 1 stem + 16 block convs + 3 projections = 20.
	if convs != 20 || dws != 0 || fcs != 1 {
		t.Fatalf("resnet-18 layers (%d, %d, %d)", convs, dws, fcs)
	}
	g34, err := Build("resnet-34", Options{Light: true})
	if err != nil {
		t.Fatal(err)
	}
	convs, _, _ = opCounts(g34)
	// 1 stem + 32 block convs + 3 projections = 36.
	if convs != 36 {
		t.Fatalf("resnet-34 convs %d, want 36", convs)
	}
}

// A down-scaled BERT graph with real weights must execute functionally
// (exercises Gemm, Transpose, MatMul, Softmax, Gelu, LayerNorm).
func TestBERTRunsFunctionally(t *testing.T) {
	if testing.Short() {
		t.Skip("full BERT functional run")
	}
	g := BERT(Options{SeqLen: 4})
	in := tensor.New(4, 768)
	in.FillRandom(9)
	outs, err := interp.Run(g, map[string]*tensor.Tensor{"input": in})
	if err != nil {
		t.Fatal(err)
	}
	out := outs[0]
	if !out.Shape.Equal(tensor.Shape{4, 768}) {
		t.Fatalf("output %v", out.Shape)
	}
	// Final LayerNorm output: each row has ~zero mean.
	for r := 0; r < 4; r++ {
		var mean float64
		for c := 0; c < 768; c++ {
			mean += float64(out.At(r, c))
		}
		mean /= 768
		if mean > 1e-3 || mean < -1e-3 {
			t.Fatalf("row %d mean %v after LayerNorm", r, mean)
		}
	}
}

func TestLightModeHasNoData(t *testing.T) {
	g, err := Build("vgg-16", Options{Light: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, ti := range g.Tensors {
		if ti.IsWeight() && ti.Init != nil {
			t.Fatalf("light model materialized weight %q", ti.Name)
		}
	}
}

func TestEvaluatedCNNsRegistered(t *testing.T) {
	if len(EvaluatedCNNs()) != 5 {
		t.Fatal("want 5 evaluated CNNs")
	}
	for _, n := range EvaluatedCNNs() {
		if _, err := Build(n, Options{Light: true}); err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
}

func TestScaledMobileVariants(t *testing.T) {
	base := paramCount(MobileNetV2Scaled(1.0, Options{Light: true}))
	wide := paramCount(MobileNetV2Scaled(1.4, Options{Light: true}))
	if wide <= base {
		t.Fatalf("width 1.4 params %d not above width 1.0 %d", wide, base)
	}
	g := MobileNetV2Scaled(1.4, Options{Light: true})
	if g.Name != "mobilenet-v2-w1.40" {
		t.Fatalf("scaled name %q", g.Name)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	mBase := paramCount(MnasNetScaled(1.0, Options{Light: true}))
	mWide := paramCount(MnasNetScaled(2.0, Options{Light: true}))
	if mWide <= mBase {
		t.Fatalf("MnasNet width 2.0 params %d not above 1.0 %d", mWide, mBase)
	}
	// Width 1.0 must be byte-identical to the registered models.
	reg, err := Build("mobilenet-v2", Options{Light: true})
	if err != nil {
		t.Fatal(err)
	}
	if paramCount(reg) != base {
		t.Fatal("width-1.0 scaled model differs from registered MobileNetV2")
	}
}

// SqueezeNet exercises the channel-concat (fire module) path end to end:
// golden parameter count (published: 1.24M), functional execution at
// reduced resolution, and PIM compilation.
func TestSqueezeNet(t *testing.T) {
	g, err := Build("squeezenet-1.1", Options{Light: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	p := paramCount(g)
	if p < 1_200_000 || p > 1_300_000 {
		t.Fatalf("params %d, want ~1.24M", p)
	}
	concats := 0
	for _, n := range g.Nodes {
		if n.Op == graph.OpConcat {
			concats++
		}
	}
	if concats != 8 {
		t.Fatalf("%d fire concats, want 8", concats)
	}
	if !g.Tensors[g.Outputs[0]].Shape.Equal(tensor.Shape{1, 1000}) {
		t.Fatalf("output %v", g.Tensors[g.Outputs[0]].Shape)
	}
}

func TestSqueezeNetRunsFunctionallySmall(t *testing.T) {
	if testing.Short() {
		t.Skip("functional run")
	}
	g, err := Build("squeezenet-1.1", Options{Resolution: 64})
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(1, 64, 64, 3)
	in.FillRandom(3)
	out, err := interp.RunSingle(g, in)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range out.Data {
		sum += float64(v)
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("softmax sum %v", sum)
	}
}

// modelDigests pins the SHA-256 of WriteJSON for each raw (uncompiled)
// Light paper CNN, computed when node attributes were string-keyed maps.
// Typed attributes must render the same attribute objects, so a moved
// digest means a graph file reads differently.
var modelDigests = map[string]string{
	"efficientnet-v1-b0": "a55ab5ead79a0ba9a2dbd6164ef8f1d82bd906a67afe269bb4074240e72304e4",
	"mnasnet-1.0":        "9f760da3f98c810128c55415afa4fca595069b1c45a6f220d19b9a3c874f7db6",
	"mobilenet-v2":       "7b860f01fd6966c4d303ff6444a48674d2e8212a2ec0acddd73c315f786f5ddd",
	"resnet-50":          "a83ebc0a1c26a4e9de600f483c18d43a76edd99340189eb92482d65a422216c7",
	"vgg-16":             "945abb80232096bcb2962863d2c4589f745ee04e2d5995ffe69a14900ef6e29d",
}

func TestModelGraphsGolden(t *testing.T) {
	for _, name := range EvaluatedCNNs() {
		g, err := Build(name, Options{Light: true})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		if err := g.WriteJSON(h); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != modelDigests[name] {
			t.Errorf("%s: graph digest %s, want %s", name, got, modelDigests[name])
		}
	}
}
