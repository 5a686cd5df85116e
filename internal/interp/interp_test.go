package interp

import (
	"math"
	"testing"
	"testing/quick"

	"pimflow/internal/graph"
	"pimflow/internal/tensor"
)

func TestGemmHandComputed(t *testing.T) {
	in, _ := tensor.FromSlice([]float32{1, 2}, 1, 2)
	w, _ := tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b, _ := tensor.FromSlice([]float32{10, 20, 30}, 3)
	out, err := Gemm(in, w, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{1*1 + 2*4 + 10, 1*2 + 2*5 + 20, 1*3 + 2*6 + 30}
	for i, v := range want {
		if out.Data[i] != v {
			t.Fatalf("out %v, want %v", out.Data, want)
		}
	}
}

func TestGemmShapeErrors(t *testing.T) {
	a := tensor.New(1, 3)
	b := tensor.New(2, 4)
	if _, err := Gemm(a, b, nil); err == nil {
		t.Fatal("inner mismatch accepted")
	}
}

func TestMatMulBatched(t *testing.T) {
	a := tensor.New(2, 2, 3)
	b := tensor.New(2, 3, 2)
	a.FillRandom(1)
	b.FillRandom(2)
	out, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Shape.Equal(tensor.Shape{2, 2, 2}) {
		t.Fatalf("shape %v", out.Shape)
	}
	// Check one element by hand: out[1,0,1].
	var want float32
	for k := 0; k < 3; k++ {
		want += a.At(1, 0, k) * b.At(1, k, 1)
	}
	if got := out.At(1, 0, 1); math.Abs(float64(got-want)) > 1e-5 {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestConvIdentityKernel(t *testing.T) {
	// 1x1 conv with identity weight must reproduce the input channel.
	in := tensor.New(1, 3, 3, 2)
	in.FillRandom(5)
	w := tensor.New(1, 1, 2, 2)
	w.Set(1, 0, 0, 0, 0)
	w.Set(1, 0, 0, 1, 1)
	p := graph.ConvParams{KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1, Group: 1}
	out, err := Conv(in, w, nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(in, out, 1e-6) {
		t.Fatal("identity 1x1 conv changed input")
	}
}

func TestConvHandComputed3x3(t *testing.T) {
	// 3x3 all-ones kernel over a 3x3 all-ones image with pad 1 computes,
	// at the center, 9; at corners, 4; at edges, 6.
	in := tensor.New(1, 3, 3, 1)
	in.Fill(1)
	w := tensor.New(3, 3, 1, 1)
	w.Fill(1)
	p := graph.ConvParams{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadT: 1, PadL: 1, PadB: 1, PadR: 1, Group: 1}
	out, err := Conv(in, w, nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if out.At(0, 1, 1, 0) != 9 || out.At(0, 0, 0, 0) != 4 || out.At(0, 0, 1, 0) != 6 {
		t.Fatalf("conv values: %v", out.Data)
	}
}

func TestConvStride2(t *testing.T) {
	in := tensor.New(1, 4, 4, 1)
	for i := range in.Data {
		in.Data[i] = float32(i)
	}
	w := tensor.New(1, 1, 1, 1)
	w.Fill(1)
	p := graph.ConvParams{KernelH: 1, KernelW: 1, StrideH: 2, StrideW: 2, Group: 1}
	out, err := Conv(in, w, nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Shape.Equal(tensor.Shape{1, 2, 2, 1}) {
		t.Fatalf("shape %v", out.Shape)
	}
	want := []float32{0, 2, 8, 10}
	for i, v := range want {
		if out.Data[i] != v {
			t.Fatalf("data %v, want %v", out.Data, want)
		}
	}
}

func TestConvDepthwise(t *testing.T) {
	// Depthwise 1x1 conv with per-channel weights 2 and 3 doubles channel 0
	// and triples channel 1.
	in := tensor.New(1, 2, 2, 2)
	in.FillRandom(7)
	w := tensor.New(1, 1, 1, 2)
	w.Data[0] = 2
	w.Data[1] = 3
	p := graph.ConvParams{KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1, Group: 2}
	out, err := Conv(in, w, nil, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if out.Data[2*i] != 2*in.Data[2*i] || out.Data[2*i+1] != 3*in.Data[2*i+1] {
			t.Fatalf("depthwise wrong at %d", i)
		}
	}
}

func TestActivations(t *testing.T) {
	b := graph.NewBuilder("act", 1, 1, 1, 4)
	g, err := b.Relu().Finish()
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(1, 1, 1, 4)
	in.Data = []float32{-1, 0, 2, -3}
	out, err := RunSingle(g, in)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{0, 0, 2, 0}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("relu %v, want %v", out.Data, want)
		}
	}
}

func TestClipRelu6(t *testing.T) {
	b := graph.NewBuilder("c", 1, 1, 1, 3)
	g, err := b.Relu6().Finish()
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(1, 1, 1, 3)
	in.Data = []float32{-2, 3, 9}
	out, err := RunSingle(g, in)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{0, 3, 6}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("relu6 %v, want %v", out.Data, want)
		}
	}
}

func TestSigmoidSiLU(t *testing.T) {
	bd := graph.NewBuilder("s", 1, 1, 1, 1)
	g, err := bd.SiLU().Finish()
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(1, 1, 1, 1)
	in.Data[0] = 2
	out, err := RunSingle(g, in)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 / (1 + math.Exp(-2)) // x*sigmoid(x)
	if math.Abs(float64(out.Data[0])-want) > 1e-5 {
		t.Fatalf("silu(2) = %v, want %v", out.Data[0], want)
	}
}

func TestSoftmaxSumsToOne(t *testing.T) {
	b := graph.NewBuilder("sm", 1, 2, 2, 8)
	g, err := b.Flatten().Softmax().Finish()
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(1, 2, 2, 8)
	in.FillRandom(3)
	out, err := RunSingle(g, in)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range out.Data {
		if v < 0 || v > 1 {
			t.Fatalf("softmax value %v outside [0,1]", v)
		}
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-4 {
		t.Fatalf("softmax sum %v", sum)
	}
}

func TestLayerNormStats(t *testing.T) {
	b := graph.NewBuilder("ln", 1, 1, 1, 64)
	g, err := b.Flatten().LayerNorm().Finish()
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(1, 1, 1, 64)
	in.FillRandom(9)
	for i := range in.Data {
		in.Data[i] = in.Data[i]*10 + 5
	}
	out, err := RunSingle(g, in)
	if err != nil {
		t.Fatal(err)
	}
	var mean, varr float64
	for _, v := range out.Data {
		mean += float64(v)
	}
	mean /= 64
	for _, v := range out.Data {
		varr += (float64(v) - mean) * (float64(v) - mean)
	}
	varr /= 64
	if math.Abs(mean) > 1e-4 || math.Abs(varr-1) > 1e-2 {
		t.Fatalf("layernorm mean %v var %v", mean, varr)
	}
}

func TestGlobalAvgPoolAndPools(t *testing.T) {
	b := graph.NewBuilder("p", 1, 2, 2, 1)
	g, err := b.GlobalAvgPool().Finish()
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(1, 2, 2, 1)
	in.Data = []float32{1, 2, 3, 6}
	out, err := RunSingle(g, in)
	if err != nil {
		t.Fatal(err)
	}
	if out.Data[0] != 3 {
		t.Fatalf("gap = %v, want 3", out.Data[0])
	}

	b2 := graph.NewBuilder("mp", 1, 2, 2, 1)
	g2, err := b2.MaxPool(2, 2, [4]int{0, 0, 0, 0}).Finish()
	if err != nil {
		t.Fatal(err)
	}
	out2, err := RunSingle(g2, in)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Data[0] != 6 {
		t.Fatalf("maxpool = %v, want 6", out2.Data[0])
	}

	b3 := graph.NewBuilder("ap", 1, 2, 2, 1)
	g3, err := b3.AvgPool(2, 2, [4]int{0, 0, 0, 0}).Finish()
	if err != nil {
		t.Fatal(err)
	}
	out3, err := RunSingle(g3, in)
	if err != nil {
		t.Fatal(err)
	}
	if out3.Data[0] != 3 {
		t.Fatalf("avgpool = %v, want 3", out3.Data[0])
	}
}

func TestResidualAddAndSEMul(t *testing.T) {
	g := graph.New("res")
	g.AddInput("x", 1, 2, 2, 2)
	g.AddInput("scale", 1, 1, 1, 2)
	g.AddNode(&graph.Node{Name: "m", Op: graph.OpMul, Inputs: []string{"x", "scale"}, Outputs: []string{"y"}})
	g.AddNode(&graph.Node{Name: "a", Op: graph.OpAdd, Inputs: []string{"y", "x"}, Outputs: []string{"z"}})
	g.MarkOutput("z")
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, 2, 2, 2)
	x.Fill(2)
	s := tensor.New(1, 1, 1, 2)
	s.Data = []float32{0.5, 2}
	outs, err := Run(g, map[string]*tensor.Tensor{"x": x, "scale": s})
	if err != nil {
		t.Fatal(err)
	}
	// z = x*scale + x: channel0 = 2*0.5+2 = 3; channel1 = 2*2+2 = 6.
	if outs[0].Data[0] != 3 || outs[0].Data[1] != 6 {
		t.Fatalf("z = %v", outs[0].Data[:2])
	}
}

func TestRunMissingInput(t *testing.T) {
	b := graph.NewBuilder("mi", 1, 1, 1, 1)
	g, err := b.Relu().Finish()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(g, nil); err == nil {
		t.Fatal("missing input accepted")
	}
	if _, err := Run(g, map[string]*tensor.Tensor{"input": tensor.New(1, 2, 2, 1)}); err == nil {
		t.Fatal("wrong-shape input accepted")
	}
}

func TestEndToEndSmallCNN(t *testing.T) {
	b := graph.NewBuilder("cnn", 1, 8, 8, 3)
	b.Conv(8, 3, 3, 1, 1, [4]int{1, 1, 1, 1}, 1).Relu()
	b.DepthwiseConv(3, 3, 2, 2, [4]int{1, 1, 1, 1}).Relu6()
	b.PointwiseConv(16).SiLU()
	g, err := b.GlobalAvgPool().Flatten().Gemm(10).Softmax().Finish()
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(1, 8, 8, 3)
	in.FillRandom(11)
	out, err := RunSingle(g, in)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Shape.Equal(tensor.Shape{1, 10}) {
		t.Fatalf("shape %v", out.Shape)
	}
	var sum float64
	for _, v := range out.Data {
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-4 {
		t.Fatalf("softmax output sums to %v", sum)
	}
}

// Property: Conv with a delta kernel (single 1 at center, pad=k/2) is the
// identity for any input.
func TestPropertyConvDeltaKernelIdentity(t *testing.T) {
	f := func(seed int64, hRaw, cRaw uint8) bool {
		h := int(hRaw%6) + 3
		c := int(cRaw%4) + 1
		in := tensor.New(1, h, h, c)
		in.FillRandom(seed)
		w := tensor.New(3, 3, c, c)
		for ch := 0; ch < c; ch++ {
			w.Set(1, 1, 1, ch, ch)
		}
		p := graph.ConvParams{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadT: 1, PadL: 1, PadB: 1, PadR: 1, Group: 1}
		out, err := Conv(in, w, nil, p)
		if err != nil {
			return false
		}
		return tensor.AllClose(in, out, 1e-5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: grouped conv with g groups equals running each group's slice
// through its own dense conv and concatenating channels.
func TestPropertyGroupedConvEqualsPerGroup(t *testing.T) {
	f := func(seed int64) bool {
		const h, cPerG, fPerG, g = 5, 3, 2, 2
		c := cPerG * g
		in := tensor.New(1, h, h, c)
		in.FillRandom(seed)
		w := tensor.New(3, 3, cPerG, fPerG*g)
		w.FillRandom(seed + 1)
		p := graph.ConvParams{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadT: 1, PadL: 1, PadB: 1, PadR: 1, Group: g}
		whole, err := Conv(in, w, nil, p)
		if err != nil {
			return false
		}
		// Per-group computation.
		p1 := p
		p1.Group = 1
		for grp := 0; grp < g; grp++ {
			sub := tensor.New(1, h, h, cPerG)
			for i := 0; i < h*h; i++ {
				copy(sub.Data[i*cPerG:(i+1)*cPerG], in.Data[i*c+grp*cPerG:i*c+(grp+1)*cPerG])
			}
			wsub := tensor.New(3, 3, cPerG, fPerG)
			for ky := 0; ky < 3; ky++ {
				for kx := 0; kx < 3; kx++ {
					for ic := 0; ic < cPerG; ic++ {
						for of := 0; of < fPerG; of++ {
							wsub.Set(w.At(ky, kx, ic, grp*fPerG+of), ky, kx, ic, of)
						}
					}
				}
			}
			part, err := Conv(sub, wsub, nil, p1)
			if err != nil {
				return false
			}
			for i := 0; i < h*h; i++ {
				for of := 0; of < fPerG; of++ {
					a := whole.Data[i*(fPerG*g)+grp*fPerG+of]
					b := part.Data[i*fPerG+of]
					if math.Abs(float64(a-b)) > 1e-5 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
