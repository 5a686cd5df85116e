package lower

import (
	"fmt"
	"testing"
	"testing/quick"

	"pimflow/internal/graph"
	"pimflow/internal/interp"
	"pimflow/internal/tensor"
)

func convParams3x3(pad int) graph.ConvParams {
	return graph.ConvParams{
		KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1,
		PadT: pad, PadL: pad, PadB: pad, PadR: pad, Group: 1,
	}
}

func TestWinogradMatchesDirectSmall(t *testing.T) {
	in := tensor.New(1, 6, 6, 2)
	in.FillRandom(1)
	w := tensor.New(3, 3, 2, 4)
	w.FillRandom(2)
	b := tensor.New(4)
	b.FillRandom(3)
	p := convParams3x3(1)
	direct, err := interp.Conv(in, w, b, p)
	if err != nil {
		t.Fatal(err)
	}
	wino, err := ConvWinograd(in, w, b, p)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(direct, wino, 1e-4) {
		t.Fatalf("winograd diverges: max diff %v", tensor.MaxAbsDiff(direct, wino))
	}
}

func TestWinogradOddOutputSize(t *testing.T) {
	// 5x5 input, pad 0 -> 3x3 output: the final 2x2 tile is partial.
	in := tensor.New(1, 5, 5, 3)
	in.FillRandom(4)
	w := tensor.New(3, 3, 3, 2)
	w.FillRandom(5)
	p := convParams3x3(0)
	direct, err := interp.Conv(in, w, nil, p)
	if err != nil {
		t.Fatal(err)
	}
	wino, err := ConvWinograd(in, w, nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(direct, wino, 1e-4) {
		t.Fatalf("partial-tile output diverges: max diff %v", tensor.MaxAbsDiff(direct, wino))
	}
}

func TestWinogradRejects(t *testing.T) {
	in := tensor.New(1, 6, 6, 2)
	w := tensor.New(3, 3, 2, 4)
	p := convParams3x3(1)
	p.StrideH = 2
	if _, err := ConvWinograd(in, w, nil, p); err == nil {
		t.Error("stride 2 accepted")
	}
	p = convParams3x3(1)
	p.KernelH = 5
	if _, err := ConvWinograd(in, w, nil, p); err == nil {
		t.Error("5x5 kernel accepted")
	}
	p = convParams3x3(1)
	if _, err := ConvWinograd(tensor.New(2, 6, 6, 2), w, nil, p); err == nil {
		t.Error("batch 2 accepted")
	}
	if _, err := ConvWinograd(in, tensor.New(3, 3, 4, 4), nil, p); err == nil {
		t.Error("channel mismatch accepted")
	}
}

// Property: Winograd F(2x2,3x3) equals direct convolution for any shape,
// channel count, and padding in {0,1}.
func TestPropertyWinogradEqualsDirect(t *testing.T) {
	f := func(seed int64, hRaw, wRaw, cRaw, fRaw, padRaw uint8) bool {
		h := int(hRaw%10) + 4
		wd := int(wRaw%10) + 4
		c := int(cRaw%4) + 1
		fOut := int(fRaw%5) + 1
		pad := int(padRaw % 2)
		p := convParams3x3(pad)
		in := tensor.New(1, h, wd, c)
		in.FillRandom(seed)
		w := tensor.New(3, 3, c, fOut)
		w.FillRandom(seed + 1)
		direct, err := interp.Conv(in, w, nil, p)
		if err != nil {
			return true // shape rejected by both paths
		}
		wino, err := ConvWinograd(in, w, nil, p)
		if err != nil {
			return false
		}
		return tensor.AllClose(direct, wino, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestWinogradSavings(t *testing.T) {
	if WinogradMultiplySavings() != 2.25 {
		t.Fatalf("savings %v", WinogradMultiplySavings())
	}
}

// Winograd F(2x2, 3x3) minimal-filtering convolution (Lavin & Gray,
// cited by the paper's §2.2 survey of convolution algorithms). Each 4x4
// input tile produces a 2x2 output tile using 16 multiplies instead of
// 36 — the algorithm GPU libraries prefer for unit-stride 3x3
// convolutions, included here as the library's second lowering strategy
// and as a cross-check for the im2col path.
//
// Transforms (for g the 3x3 filter, d the 4x4 input tile):
//
//	U = G g G^T, V = B^T d B, Y = A^T (U .* V) A
//
// with the standard F(2,3) matrices
//
//	B^T = [1 0 -1 0; 0 1 1 0; 0 -1 1 0; 0 1 0 -1]
//	G   = [1 0 0; .5 .5 .5; .5 -.5 .5; 0 0 1]
//	A^T = [1 1 1 0; 0 1 -1 -1]

// winogradFilter computes U = G g G^T for one 3x3 filter.
func winogradFilter(g [3][3]float32) (u [4][4]float32) {
	// t = G g (4x3)
	var t [4][3]float32
	for c := 0; c < 3; c++ {
		g0, g1, g2 := g[0][c], g[1][c], g[2][c]
		t[0][c] = g0
		t[1][c] = 0.5 * (g0 + g1 + g2)
		t[2][c] = 0.5 * (g0 - g1 + g2)
		t[3][c] = g2
	}
	// u = t G^T (4x4)
	for r := 0; r < 4; r++ {
		a0, a1, a2 := t[r][0], t[r][1], t[r][2]
		u[r][0] = a0
		u[r][1] = 0.5 * (a0 + a1 + a2)
		u[r][2] = 0.5 * (a0 - a1 + a2)
		u[r][3] = a2
	}
	return u
}

// winogradInput computes V = B^T d B for one 4x4 input tile.
func winogradInput(d [4][4]float32) (v [4][4]float32) {
	// t = B^T d (4x4)
	var t [4][4]float32
	for c := 0; c < 4; c++ {
		d0, d1, d2, d3 := d[0][c], d[1][c], d[2][c], d[3][c]
		t[0][c] = d0 - d2
		t[1][c] = d1 + d2
		t[2][c] = d2 - d1
		t[3][c] = d1 - d3
	}
	// v = t B (4x4)
	for r := 0; r < 4; r++ {
		t0, t1, t2, t3 := t[r][0], t[r][1], t[r][2], t[r][3]
		v[r][0] = t0 - t2
		v[r][1] = t1 + t2
		v[r][2] = t2 - t1
		v[r][3] = t1 - t3
	}
	return v
}

// winogradOutput computes Y = A^T m A for one 4x4 elementwise product.
func winogradOutput(m [4][4]float32) (y [2][2]float32) {
	// t = A^T m (2x4)
	var t [2][4]float32
	for c := 0; c < 4; c++ {
		m0, m1, m2, m3 := m[0][c], m[1][c], m[2][c], m[3][c]
		t[0][c] = m0 + m1 + m2
		t[1][c] = m1 - m2 - m3
	}
	for r := 0; r < 2; r++ {
		t0, t1, t2, t3 := t[r][0], t[r][1], t[r][2], t[r][3]
		y[r][0] = t0 + t1 + t2
		y[r][1] = t1 - t2 - t3
	}
	return y
}

// ConvWinograd computes a unit-stride group-1 3x3 convolution with the
// F(2x2, 3x3) Winograd algorithm. Input is batch-1 NHWC [1,H,W,C], weight
// [3,3,C,F], optional bias [F]; padding must be symmetric per axis.
func ConvWinograd(in, w, bias *tensor.Tensor, p graph.ConvParams) (*tensor.Tensor, error) {
	if p.KernelH != 3 || p.KernelW != 3 || p.StrideH != 1 || p.StrideW != 1 || p.Group != 1 {
		return nil, fmt.Errorf("lower: Winograd F(2,3) needs unit-stride group-1 3x3, got %+v", p)
	}
	if len(in.Shape) != 4 || in.Shape[0] != 1 {
		return nil, fmt.Errorf("lower: want batch-1 NHWC input, got %v", in.Shape)
	}
	if len(w.Shape) != 4 || w.Shape[0] != 3 || w.Shape[1] != 3 || w.Shape[2] != in.Shape[3] {
		return nil, fmt.Errorf("lower: weight %v mismatches input %v", w.Shape, in.Shape)
	}
	h, wd, c := in.Shape[1], in.Shape[2], in.Shape[3]
	f := w.Shape[3]
	oh := h + p.PadT + p.PadB - 2
	ow := wd + p.PadL + p.PadR - 2
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("lower: non-positive output %dx%d", oh, ow)
	}

	// Pre-transform all filters: U[ch][of] is a 4x4 matrix.
	u := make([][4][4]float32, c*f)
	for ch := 0; ch < c; ch++ {
		for of := 0; of < f; of++ {
			var gm [3][3]float32
			for ky := 0; ky < 3; ky++ {
				for kx := 0; kx < 3; kx++ {
					gm[ky][kx] = w.At(ky, kx, ch, of)
				}
			}
			u[ch*f+of] = winogradFilter(gm)
		}
	}

	at := func(y, x, ch int) float32 {
		y -= p.PadT
		x -= p.PadL
		if y < 0 || y >= h || x < 0 || x >= wd {
			return 0
		}
		return in.Data[(y*wd+x)*c+ch]
	}

	out := tensor.New(1, oh, ow, f)
	// Tile the output in 2x2 blocks.
	for ty := 0; ty < oh; ty += 2 {
		for tx := 0; tx < ow; tx += 2 {
			// Accumulate the elementwise-product tiles across channels.
			acc := make([][4][4]float32, f)
			for ch := 0; ch < c; ch++ {
				var d [4][4]float32
				for r := 0; r < 4; r++ {
					for cc := 0; cc < 4; cc++ {
						d[r][cc] = at(ty+r, tx+cc, ch)
					}
				}
				v := winogradInput(d)
				for of := 0; of < f; of++ {
					uf := &u[ch*f+of]
					af := &acc[of]
					for r := 0; r < 4; r++ {
						for cc := 0; cc < 4; cc++ {
							af[r][cc] += uf[r][cc] * v[r][cc]
						}
					}
				}
			}
			for of := 0; of < f; of++ {
				y := winogradOutput(acc[of])
				for r := 0; r < 2; r++ {
					for cc := 0; cc < 2; cc++ {
						oy, ox := ty+r, tx+cc
						if oy >= oh || ox >= ow {
							continue
						}
						val := y[r][cc]
						if bias != nil {
							val += bias.Data[of]
						}
						out.Data[(oy*ow+ox)*f+of] = val
					}
				}
			}
		}
	}
	return out, nil
}

// WinogradMultiplySavings returns the multiply-count ratio of direct 3x3
// convolution to F(2x2,3x3) Winograd (36/16 = 2.25), the headline of the
// minimal-filtering approach.
func WinogradMultiplySavings() float64 { return 36.0 / 16.0 }
