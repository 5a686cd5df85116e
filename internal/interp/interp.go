// Package interp is a reference interpreter for PIMFlow model graphs. It
// executes graphs functionally on float32 tensors, with straightforward
// (unoptimized) operator implementations. The compiler's transformation
// passes are validated against it: a transformed graph must produce the
// same outputs as the original.
package interp

import (
	"fmt"
	"math"

	"pimflow/internal/graph"
	"pimflow/internal/tensor"
)

// Run executes the graph on the given input tensors (keyed by graph input
// name) and returns the graph output tensors in declaration order.
func Run(g *graph.Graph, inputs map[string]*tensor.Tensor) ([]*tensor.Tensor, error) {
	env := map[string]*tensor.Tensor{}
	for name, ti := range g.Tensors {
		if ti.IsWeight() {
			env[name] = ti.Init
		}
	}
	for _, name := range g.Inputs {
		t, ok := inputs[name]
		if !ok {
			return nil, fmt.Errorf("interp: missing input %q", name)
		}
		want := g.Tensors[name].Shape
		if want.Valid() && !t.Shape.Equal(want) {
			return nil, fmt.Errorf("interp: input %q shape %v, want %v", name, t.Shape, want)
		}
		env[name] = t
	}
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	for _, n := range order {
		if err := evalNode(g, n, env); err != nil {
			return nil, fmt.Errorf("interp: %s %q: %w", n.Op, n.Name, err)
		}
	}
	outs := make([]*tensor.Tensor, len(g.Outputs))
	for i, name := range g.Outputs {
		t, ok := env[name]
		if !ok {
			return nil, fmt.Errorf("interp: output %q never produced", name)
		}
		outs[i] = t
	}
	return outs, nil
}

// RunSingle executes a single-input single-output graph.
func RunSingle(g *graph.Graph, input *tensor.Tensor) (*tensor.Tensor, error) {
	if len(g.Inputs) != 1 {
		return nil, fmt.Errorf("interp: graph has %d inputs", len(g.Inputs))
	}
	outs, err := Run(g, map[string]*tensor.Tensor{g.Inputs[0]: input})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

func evalNode(g *graph.Graph, n *graph.Node, env map[string]*tensor.Tensor) error {
	in := make([]*tensor.Tensor, len(n.Inputs))
	for i, name := range n.Inputs {
		t, ok := env[name]
		if !ok {
			return fmt.Errorf("input %q not available", name)
		}
		in[i] = t
	}
	var out *tensor.Tensor
	var err error
	switch n.Op {
	case graph.OpConv:
		out, err = evalConv(n, in)
	case graph.OpGemm:
		out, err = Gemm(in[0], in[1], bias(in))
	case graph.OpMatMul:
		out, err = MatMul(in[0], in[1])
	case graph.OpRelu:
		out = unary(in[0], func(x float32) float32 {
			if x < 0 {
				return 0
			}
			return x
		})
	case graph.OpClip:
		lo, hi := float32(n.Min), float32(n.Max)
		out = unary(in[0], func(x float32) float32 {
			if x < lo {
				return lo
			}
			if x > hi {
				return hi
			}
			return x
		})
	case graph.OpSigmoid:
		out = unary(in[0], sigmoid)
	case graph.OpSiLU:
		out = unary(in[0], func(x float32) float32 { return x * sigmoid(x) })
	case graph.OpGelu:
		out = unary(in[0], gelu)
	case graph.OpIdentity:
		out = in[0].Clone()
	case graph.OpTranspose:
		out, err = transpose2D(in[0])
	case graph.OpBatchNorm:
		out, err = batchNorm(in, float32(n.Eps()))
	case graph.OpAdd:
		out, err = broadcast(in[0], in[1], func(a, b float32) float32 { return a + b })
	case graph.OpMul:
		out, err = broadcast(in[0], in[1], func(a, b float32) float32 { return a * b })
	case graph.OpGlobalAvgPool:
		out, err = globalAvgPool(in[0])
	case graph.OpMaxPool:
		out, err = pool(n, in[0], true)
	case graph.OpAvgPool:
		out, err = pool(n, in[0], false)
	case graph.OpFlatten:
		out, err = flatten(in[0])
	case graph.OpConcat:
		out, err = concat(n.Axis, in)
	case graph.OpSlice:
		out, err = slice(n, in[0])
	case graph.OpPad:
		p := n.Conv
		out, err = tensor.PadHW(in[0], p.PadT, p.PadL, p.PadB, p.PadR)
	case graph.OpSoftmax:
		out, err = softmax(in[0])
	case graph.OpLayerNorm:
		out, err = layerNorm(in[0])
	default:
		return fmt.Errorf("unsupported op")
	}
	if err != nil {
		return err
	}
	env[n.Outputs[0]] = out
	return nil
}

func bias(in []*tensor.Tensor) *tensor.Tensor {
	if len(in) > 2 {
		return in[2]
	}
	return nil
}

func sigmoid(x float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(x))))
}

func gelu(x float32) float32 {
	// tanh approximation, as used by BERT implementations.
	v := float64(x)
	return float32(0.5 * v * (1 + math.Tanh(math.Sqrt(2/math.Pi)*(v+0.044715*v*v*v))))
}

func unary(t *tensor.Tensor, f func(float32) float32) *tensor.Tensor {
	out := t.Clone()
	for i, v := range out.Data {
		out.Data[i] = f(v)
	}
	return out
}

func broadcast(a, b *tensor.Tensor, f func(x, y float32) float32) (*tensor.Tensor, error) {
	if a.Shape.Equal(b.Shape) {
		out := a.Clone()
		for i := range out.Data {
			out.Data[i] = f(a.Data[i], b.Data[i])
		}
		return out, nil
	}
	// [1,H,W,C] op [1,1,1,C] in either order.
	if len(a.Shape) == 4 && len(b.Shape) == 4 && a.Shape[3] == b.Shape[3] {
		if b.Shape[1] == 1 && b.Shape[2] == 1 {
			out := a.Clone()
			c := a.Shape[3]
			for i := range out.Data {
				out.Data[i] = f(a.Data[i], b.Data[i%c])
			}
			return out, nil
		}
		if a.Shape[1] == 1 && a.Shape[2] == 1 {
			out := b.Clone()
			c := b.Shape[3]
			for i := range out.Data {
				out.Data[i] = f(a.Data[i%c], b.Data[i])
			}
			return out, nil
		}
	}
	return nil, fmt.Errorf("cannot broadcast %v with %v", a.Shape, b.Shape)
}

// Gemm computes in [M,K] x w [K,N] (+ bias [N]).
func Gemm(in, w, b *tensor.Tensor) (*tensor.Tensor, error) {
	if len(in.Shape) != 2 || len(w.Shape) != 2 || in.Shape[1] != w.Shape[0] {
		return nil, fmt.Errorf("gemm shapes %v x %v", in.Shape, w.Shape)
	}
	m, k, nn := in.Shape[0], in.Shape[1], w.Shape[1]
	out := tensor.New(m, nn)
	for i := 0; i < m; i++ {
		for j := 0; j < nn; j++ {
			var acc float32
			for kk := 0; kk < k; kk++ {
				acc += in.Data[i*k+kk] * w.Data[kk*nn+j]
			}
			if b != nil {
				acc += b.Data[j]
			}
			out.Data[i*nn+j] = acc
		}
	}
	return out, nil
}

// MatMul computes 2-D or batched 3-D matrix multiplication.
func MatMul(a, b *tensor.Tensor) (*tensor.Tensor, error) {
	switch {
	case len(a.Shape) == 2 && len(b.Shape) == 2:
		return Gemm(a, b, nil)
	case len(a.Shape) == 3 && len(b.Shape) == 3:
		if a.Shape[0] != b.Shape[0] || a.Shape[2] != b.Shape[1] {
			return nil, fmt.Errorf("matmul shapes %v x %v", a.Shape, b.Shape)
		}
		bt, m, k, nn := a.Shape[0], a.Shape[1], a.Shape[2], b.Shape[2]
		out := tensor.New(bt, m, nn)
		for bb := 0; bb < bt; bb++ {
			for i := 0; i < m; i++ {
				for j := 0; j < nn; j++ {
					var acc float32
					for kk := 0; kk < k; kk++ {
						acc += a.Data[(bb*m+i)*k+kk] * b.Data[(bb*k+kk)*nn+j]
					}
					out.Data[(bb*m+i)*nn+j] = acc
				}
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("matmul ranks %v x %v", a.Shape, b.Shape)
	}
}

func evalConv(n *graph.Node, in []*tensor.Tensor) (*tensor.Tensor, error) {
	return Conv(in[0], in[1], bias(in), n.Conv)
}

// Conv computes a grouped NHWC convolution directly (no lowering):
// input [1,H,W,C], weight [KH,KW,C/g,F], bias [F].
func Conv(in, w, b *tensor.Tensor, p graph.ConvParams) (*tensor.Tensor, error) {
	if len(in.Shape) != 4 || in.Shape[0] != 1 {
		return nil, fmt.Errorf("conv wants batch-1 NHWC input, got %v", in.Shape)
	}
	if len(w.Shape) != 4 {
		return nil, fmt.Errorf("conv wants [KH,KW,C/g,F] weight, got %v", w.Shape)
	}
	h, wd, c := in.Shape[1], in.Shape[2], in.Shape[3]
	kh, kw, cg, f := w.Shape[0], w.Shape[1], w.Shape[2], w.Shape[3]
	if kh != p.KernelH || kw != p.KernelW || cg*p.Group != c || f%p.Group != 0 {
		return nil, fmt.Errorf("conv weight %v mismatches params %+v with C=%d", w.Shape, p, c)
	}
	oh := (h+p.PadT+p.PadB-kh)/p.StrideH + 1
	ow := (wd+p.PadL+p.PadR-kw)/p.StrideW + 1
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("conv output %dx%d not positive", oh, ow)
	}
	fg := f / p.Group
	out := tensor.New(1, oh, ow, f)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			for of := 0; of < f; of++ {
				grp := of / fg
				var acc float32
				for ky := 0; ky < kh; ky++ {
					iy := oy*p.StrideH + ky - p.PadT
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < kw; kx++ {
						ix := ox*p.StrideW + kx - p.PadL
						if ix < 0 || ix >= wd {
							continue
						}
						for ic := 0; ic < cg; ic++ {
							inV := in.Data[((iy*wd)+ix)*c+grp*cg+ic]
							wV := w.Data[((ky*kw+kx)*cg+ic)*f+of]
							acc += inV * wV
						}
					}
				}
				if b != nil {
					acc += b.Data[of]
				}
				out.Data[((oy*ow)+ox)*f+of] = acc
			}
		}
	}
	return out, nil
}

// batchNorm applies inference-mode batch normalization per channel:
// y = scale * (x - mean) / sqrt(var + eps) + bias.
func batchNorm(in []*tensor.Tensor, eps float32) (*tensor.Tensor, error) {
	if len(in) != 5 {
		return nil, fmt.Errorf("batchnorm wants 5 inputs, got %d", len(in))
	}
	x, scale, bias, mean, variance := in[0], in[1], in[2], in[3], in[4]
	if len(x.Shape) != 4 {
		return nil, fmt.Errorf("batchnorm wants NHWC, got %v", x.Shape)
	}
	c := x.Shape[3]
	for _, p := range in[1:] {
		if len(p.Shape) != 1 || p.Shape[0] != c {
			return nil, fmt.Errorf("batchnorm parameter shape %v mismatches C=%d", p.Shape, c)
		}
	}
	out := x.Clone()
	inv := make([]float32, c)
	for ch := 0; ch < c; ch++ {
		inv[ch] = scale.Data[ch] / float32(math.Sqrt(float64(variance.Data[ch]+eps)))
	}
	for i := range out.Data {
		ch := i % c
		out.Data[i] = (x.Data[i]-mean.Data[ch])*inv[ch] + bias.Data[ch]
	}
	return out, nil
}

func transpose2D(in *tensor.Tensor) (*tensor.Tensor, error) {
	if len(in.Shape) != 2 {
		return nil, fmt.Errorf("transpose wants 2-D, got %v", in.Shape)
	}
	m, n := in.Shape[0], in.Shape[1]
	out := tensor.New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Data[j*m+i] = in.Data[i*n+j]
		}
	}
	return out, nil
}

func globalAvgPool(in *tensor.Tensor) (*tensor.Tensor, error) {
	if len(in.Shape) != 4 {
		return nil, fmt.Errorf("gap wants NHWC, got %v", in.Shape)
	}
	h, w, c := in.Shape[1], in.Shape[2], in.Shape[3]
	out := tensor.New(in.Shape[0], 1, 1, c)
	inv := 1 / float32(h*w)
	for i := 0; i < h*w; i++ {
		for cc := 0; cc < c; cc++ {
			out.Data[cc] += in.Data[i*c+cc] * inv
		}
	}
	return out, nil
}

func pool(n *graph.Node, in *tensor.Tensor, isMax bool) (*tensor.Tensor, error) {
	if len(in.Shape) != 4 || in.Shape[0] != 1 {
		return nil, fmt.Errorf("pool wants batch-1 NHWC, got %v", in.Shape)
	}
	p := n.Conv
	h, w, c := in.Shape[1], in.Shape[2], in.Shape[3]
	oh := (h+p.PadT+p.PadB-p.KernelH)/p.StrideH + 1
	ow := (w+p.PadL+p.PadR-p.KernelW)/p.StrideW + 1
	out := tensor.New(1, oh, ow, c)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			for cc := 0; cc < c; cc++ {
				var acc float32
				count := 0
				if isMax {
					acc = float32(math.Inf(-1))
				}
				for ky := 0; ky < p.KernelH; ky++ {
					iy := oy*p.StrideH + ky - p.PadT
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < p.KernelW; kx++ {
						ix := ox*p.StrideW + kx - p.PadL
						if ix < 0 || ix >= w {
							continue
						}
						v := in.Data[(iy*w+ix)*c+cc]
						if isMax {
							if v > acc {
								acc = v
							}
						} else {
							acc += v
						}
						count++
					}
				}
				if !isMax {
					if count > 0 {
						acc /= float32(count)
					}
				}
				out.Data[(oy*ow+ox)*c+cc] = acc
			}
		}
	}
	return out, nil
}

func flatten(in *tensor.Tensor) (*tensor.Tensor, error) {
	if len(in.Shape) < 2 {
		return nil, fmt.Errorf("flatten wants rank >= 2, got %v", in.Shape)
	}
	rest := 1
	for _, d := range in.Shape[1:] {
		rest *= d
	}
	out := in.Clone()
	out.Shape = tensor.Shape{in.Shape[0], rest}
	return out, nil
}

func concat(axis int, parts []*tensor.Tensor) (*tensor.Tensor, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("concat of nothing")
	}
	if len(parts[0].Shape) == 4 {
		switch axis {
		case 1:
			return tensor.ConcatH(parts...)
		case 3:
			return tensor.ConcatC(parts...)
		}
	}
	if len(parts[0].Shape) == 2 && axis == 1 {
		m := parts[0].Shape[0]
		total := 0
		for _, p := range parts {
			if len(p.Shape) != 2 || p.Shape[0] != m {
				return nil, fmt.Errorf("concat axis1 shape mismatch")
			}
			total += p.Shape[1]
		}
		out := tensor.New(m, total)
		for i := 0; i < m; i++ {
			off := 0
			for _, p := range parts {
				w := p.Shape[1]
				copy(out.Data[i*total+off:], p.Data[i*w:(i+1)*w])
				off += w
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("concat axis %d of rank %d unsupported", axis, len(parts[0].Shape))
}

func slice(n *graph.Node, in *tensor.Tensor) (*tensor.Tensor, error) {
	axis, start, end := n.Axis, n.Start, n.End
	if len(in.Shape) == 4 && axis == 1 {
		if end < 0 || end > in.Shape[1] {
			end = in.Shape[1]
		}
		return tensor.SliceH(in, start, end)
	}
	if len(in.Shape) == 2 && axis == 1 {
		if end < 0 || end > in.Shape[1] {
			end = in.Shape[1]
		}
		if start < 0 || start >= end {
			return nil, fmt.Errorf("slice [%d,%d) invalid", start, end)
		}
		m, k := in.Shape[0], in.Shape[1]
		out := tensor.New(m, end-start)
		for i := 0; i < m; i++ {
			copy(out.Data[i*(end-start):], in.Data[i*k+start:i*k+end])
		}
		return out, nil
	}
	return nil, fmt.Errorf("slice axis %d of rank %d unsupported", axis, len(in.Shape))
}

func softmax(in *tensor.Tensor) (*tensor.Tensor, error) {
	if len(in.Shape) < 1 {
		return nil, fmt.Errorf("softmax of scalar")
	}
	last := in.Shape[len(in.Shape)-1]
	out := in.Clone()
	for off := 0; off < len(out.Data); off += last {
		row := out.Data[off : off+last]
		maxV := row[0]
		for _, v := range row {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		for i, v := range row {
			e := math.Exp(float64(v - maxV))
			row[i] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for i := range row {
			row[i] *= inv
		}
	}
	return out, nil
}

func layerNorm(in *tensor.Tensor) (*tensor.Tensor, error) {
	if len(in.Shape) < 1 {
		return nil, fmt.Errorf("layernorm of scalar")
	}
	last := in.Shape[len(in.Shape)-1]
	out := in.Clone()
	const eps = 1e-5
	for off := 0; off < len(out.Data); off += last {
		row := out.Data[off : off+last]
		var mean float64
		for _, v := range row {
			mean += float64(v)
		}
		mean /= float64(last)
		var variance float64
		for _, v := range row {
			d := float64(v) - mean
			variance += d * d
		}
		variance /= float64(last)
		inv := 1 / math.Sqrt(variance+eps)
		for i, v := range row {
			row[i] = float32((float64(v) - mean) * inv)
		}
	}
	return out, nil
}
