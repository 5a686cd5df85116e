package lower

import (
	"fmt"
	"testing"
	"testing/quick"

	"pimflow/internal/graph"
	"pimflow/internal/interp"
	"pimflow/internal/tensor"
)

func TestLowerConvDims(t *testing.T) {
	// Pointwise conv over 14x14x256 -> 512: M=196, K=256, N=512.
	p := graph.ConvParams{KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1, Group: 1}
	l, err := LowerConv(tensor.Shape{1, 14, 14, 256}, p, 512)
	if err != nil {
		t.Fatal(err)
	}
	if l.Dims.M != 196 || l.Dims.K != 256 || l.Dims.N != 512 {
		t.Fatalf("dims %+v", l.Dims)
	}
	if l.OutH != 14 || l.OutW != 14 || l.Groups != 1 {
		t.Fatalf("lowering %+v", l)
	}
	if l.Dims.FLOPs() != 2*196*256*512 {
		t.Fatalf("flops %d", l.Dims.FLOPs())
	}
	if l.Dims.WeightBytes() != 256*512*2 {
		t.Fatalf("weight bytes %d", l.Dims.WeightBytes())
	}
}

func TestLowerConv3x3Stride2(t *testing.T) {
	p := graph.ConvParams{KernelH: 3, KernelW: 3, StrideH: 2, StrideW: 2, PadT: 1, PadL: 1, PadB: 1, PadR: 1, Group: 1}
	l, err := LowerConv(tensor.Shape{1, 224, 224, 3}, p, 32)
	if err != nil {
		t.Fatal(err)
	}
	if l.OutH != 112 || l.OutW != 112 {
		t.Fatalf("out %dx%d", l.OutH, l.OutW)
	}
	if l.Dims.K != 27 || l.Dims.M != 112*112 || l.Dims.N != 32 {
		t.Fatalf("dims %+v", l.Dims)
	}
}

func TestLowerConvErrors(t *testing.T) {
	p := graph.ConvParams{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, Group: 3}
	if _, err := LowerConv(tensor.Shape{1, 8, 8, 4}, p, 6); err == nil {
		t.Fatal("indivisible groups accepted")
	}
	if _, err := LowerConv(tensor.Shape{8, 8, 4}, p, 6); err == nil {
		t.Fatal("rank-3 input accepted")
	}
	p2 := graph.ConvParams{KernelH: 9, KernelW: 9, StrideH: 1, StrideW: 1, Group: 1}
	if _, err := LowerConv(tensor.Shape{1, 4, 4, 2}, p2, 8); err == nil {
		t.Fatal("kernel larger than input accepted")
	}
}

func TestIm2colHandComputed(t *testing.T) {
	// 2x2 input, single channel, 2x2 kernel, no pad: one output row with
	// the whole image.
	in := tensor.New(1, 2, 2, 1)
	in.Data = []float32{1, 2, 3, 4}
	p := graph.ConvParams{KernelH: 2, KernelW: 2, StrideH: 1, StrideW: 1, Group: 1}
	m, err := Im2col(in, p)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Shape.Equal(tensor.Shape{1, 4}) {
		t.Fatalf("shape %v", m.Shape)
	}
	want := []float32{1, 2, 3, 4}
	for i := range want {
		if m.Data[i] != want[i] {
			t.Fatalf("data %v", m.Data)
		}
	}
}

func TestIm2colPaddingZeros(t *testing.T) {
	in := tensor.New(1, 1, 1, 1)
	in.Data[0] = 7
	p := graph.ConvParams{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadT: 1, PadL: 1, PadB: 1, PadR: 1, Group: 1}
	m, err := Im2col(in, p)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Shape.Equal(tensor.Shape{1, 9}) {
		t.Fatalf("shape %v", m.Shape)
	}
	for i, v := range m.Data {
		if i == 4 {
			if v != 7 {
				t.Fatalf("center %v", v)
			}
		} else if v != 0 {
			t.Fatalf("padding not zero at %d: %v", i, m.Data)
		}
	}
}

func TestIm2colRejectsGroups(t *testing.T) {
	in := tensor.New(1, 4, 4, 4)
	p := graph.ConvParams{KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1, Group: 4}
	if _, err := Im2col(in, p); err == nil {
		t.Fatal("grouped im2col accepted")
	}
}

func TestFilterMatrixLayout(t *testing.T) {
	w := tensor.New(2, 2, 3, 5)
	w.FillRandom(3)
	f, err := FilterMatrix(w)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Shape.Equal(tensor.Shape{12, 5}) {
		t.Fatalf("shape %v", f.Shape)
	}
	// Element (ky=1,kx=0,c=2,f=4) must land at row (1*2+0)*3+2 = 8, col 4.
	if f.At(8, 4) != w.At(1, 0, 2, 4) {
		t.Fatal("filter matrix layout wrong")
	}
	if _, err := FilterMatrix(tensor.New(2, 2)); err == nil {
		t.Fatal("rank-2 weight accepted")
	}
}

// The central lowering property (paper Fig 2): convolution via
// im2col + GEMM equals direct convolution, for random shapes, strides,
// and paddings.
func TestPropertyLoweringEqualsDirectConv(t *testing.T) {
	f := func(seed int64, hRaw, cRaw, fRaw, kRaw, sRaw uint8) bool {
		h := int(hRaw%10) + 4
		c := int(cRaw%6) + 1
		fOut := int(fRaw%8) + 1
		k := []int{1, 3, 5}[int(kRaw)%3]
		s := []int{1, 2}[int(sRaw)%2]
		pad := k / 2
		p := graph.ConvParams{
			KernelH: k, KernelW: k, StrideH: s, StrideW: s,
			PadT: pad, PadL: pad, PadB: pad, PadR: pad, Group: 1,
		}
		in := tensor.New(1, h, h, c)
		in.FillRandom(seed)
		w := tensor.New(k, k, c, fOut)
		w.FillRandom(seed + 1)
		bias := tensor.New(fOut)
		bias.FillRandom(seed + 2)

		direct, err := interp.Conv(in, w, bias, p)
		if err != nil {
			return false
		}
		lowered, err := ConvViaLowering(in, w, bias, p)
		if err != nil {
			return false
		}
		return tensor.AllClose(direct, lowered, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Im2col output dimensions always match LowerConv's GemmDims.
func TestPropertyIm2colMatchesDims(t *testing.T) {
	f := func(hRaw, cRaw, kRaw uint8) bool {
		h := int(hRaw%10) + 4
		c := int(cRaw%6) + 1
		k := []int{1, 3}[int(kRaw)%2]
		p := graph.ConvParams{KernelH: k, KernelW: k, StrideH: 1, StrideW: 1, PadT: k / 2, PadL: k / 2, PadB: k / 2, PadR: k / 2, Group: 1}
		in := tensor.New(1, h, h, c)
		l, err := LowerConv(in.Shape, p, 8)
		if err != nil {
			return false
		}
		m, err := Im2col(in, p)
		if err != nil {
			return false
		}
		return m.Shape[0] == l.Dims.M && m.Shape[1] == l.Dims.K
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// ConvViaLowering computes a group-1 convolution via im2col + GEMM,
// producing an NHWC output identical (up to float rounding) to direct
// convolution. Used to validate the lowering the PIM back-end relies on.
func ConvViaLowering(in, w, bias *tensor.Tensor, p graph.ConvParams) (*tensor.Tensor, error) {
	lowered, err := Im2col(in, p)
	if err != nil {
		return nil, err
	}
	filt, err := FilterMatrix(w)
	if err != nil {
		return nil, err
	}
	if lowered.Shape[1] != filt.Shape[0] {
		return nil, fmt.Errorf("lower: K mismatch %d vs %d", lowered.Shape[1], filt.Shape[0])
	}
	m, k, n := lowered.Shape[0], lowered.Shape[1], filt.Shape[1]
	out := tensor.New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float32
			for kk := 0; kk < k; kk++ {
				acc += lowered.Data[i*k+kk] * filt.Data[kk*n+j]
			}
			if bias != nil {
				acc += bias.Data[j]
			}
			out.Data[i*n+j] = acc
		}
	}
	h := in.Shape[1]
	oh := (h+p.PadT+p.PadB-p.KernelH)/p.StrideH + 1
	out.Shape = tensor.Shape{1, oh, m / oh, n}
	return out, nil
}
