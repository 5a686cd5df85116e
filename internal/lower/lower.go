// Package lower implements convolution lowering ("im2col"): rewriting a
// convolution as a matrix-matrix multiplication of a rearranged input
// matrix and a flattened filter matrix (paper §2.2, Fig 2). The DRAM-PIM
// back-end maps the lowered multiplication onto iterated matrix-vector
// products: each row of the lowered input matrix becomes the small operand
// loaded into a PIM global buffer, and the filter matrix is the large
// operand resident in the memory cell arrays.
package lower

import (
	"fmt"

	"pimflow/internal/graph"
	"pimflow/internal/tensor"
)

// GemmDims describes the matrix multiplication a lowered convolution
// performs: an [M x K] input matrix times a [K x N] filter matrix.
//
//	M = OH*OW   (output spatial positions = number of PIM GEMVs)
//	K = KH*KW*C (lowered patch length = global-buffer vector length)
//	N = F       (output channels = PIM output lanes)
type GemmDims struct {
	M, K, N int
}

// FLOPs returns the multiply-accumulate count times two.
func (d GemmDims) FLOPs() int64 {
	return 2 * int64(d.M) * int64(d.K) * int64(d.N)
}

// WeightBytes returns the filter matrix size in bytes at 2 bytes/element
// (fp16, the PIM device format).
func (d GemmDims) WeightBytes() int64 {
	return int64(d.K) * int64(d.N) * 2
}

// ConvDims computes the lowered GEMM dimensions of a convolution over the
// given NHWC input shape. Grouped convolutions lower each group
// independently; the returned dims describe one group, and Groups carries
// the multiplicity.
type ConvLowering struct {
	Dims   GemmDims
	Groups int
	OutH   int
	OutW   int
	// Winograd reports whether the layer is eligible for the F(2x2,3x3)
	// minimal-filtering algorithm on GPU (unit-stride group-1 3x3 with
	// enough channels to amortize the transforms).
	Winograd bool
}

// LowerConv computes the lowering of a Conv node given its input shape
// [1,H,W,C] and filter count F.
func LowerConv(inShape tensor.Shape, p graph.ConvParams, f int) (ConvLowering, error) {
	if len(inShape) != 4 {
		return ConvLowering{}, fmt.Errorf("lower: want NHWC input, got %v", inShape)
	}
	h, w, c := inShape[1], inShape[2], inShape[3]
	if c%p.Group != 0 || f%p.Group != 0 {
		return ConvLowering{}, fmt.Errorf("lower: C=%d F=%d not divisible by group %d", c, f, p.Group)
	}
	oh := (h+p.PadT+p.PadB-p.KernelH)/p.StrideH + 1
	ow := (w+p.PadL+p.PadR-p.KernelW)/p.StrideW + 1
	if oh <= 0 || ow <= 0 {
		return ConvLowering{}, fmt.Errorf("lower: non-positive output %dx%d", oh, ow)
	}
	return ConvLowering{
		Dims: GemmDims{
			M: oh * ow,
			K: p.KernelH * p.KernelW * (c / p.Group),
			N: f / p.Group,
		},
		Groups: p.Group,
		OutH:   oh,
		OutW:   ow,
		Winograd: p.Group == 1 && p.KernelH == 3 && p.KernelW == 3 &&
			p.StrideH == 1 && p.StrideW == 1 && c >= 16 && f >= 16,
	}, nil
}

// Im2col rearranges a batch-1 NHWC input into the lowered [M x K] matrix
// for a group-1 convolution: row m corresponds to output position
// (m/OW, m%OW) and contains the KH*KW*C patch in (ky, kx, c) order, with
// zeros where the patch extends into padding. Only tests call it:
// codegen/execute_test.go runs a lowered convolution through Execute.
func Im2col(in *tensor.Tensor, p graph.ConvParams) (*tensor.Tensor, error) {
	if len(in.Shape) != 4 || in.Shape[0] != 1 {
		return nil, fmt.Errorf("lower: im2col wants batch-1 NHWC, got %v", in.Shape)
	}
	if p.Group != 1 {
		return nil, fmt.Errorf("lower: im2col supports group=1, got %d", p.Group)
	}
	h, w, c := in.Shape[1], in.Shape[2], in.Shape[3]
	oh := (h+p.PadT+p.PadB-p.KernelH)/p.StrideH + 1
	ow := (w+p.PadL+p.PadR-p.KernelW)/p.StrideW + 1
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("lower: non-positive output %dx%d", oh, ow)
	}
	k := p.KernelH * p.KernelW * c
	out := tensor.New(oh*ow, k)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			row := (oy*ow + ox) * k
			for ky := 0; ky < p.KernelH; ky++ {
				iy := oy*p.StrideH + ky - p.PadT
				for kx := 0; kx < p.KernelW; kx++ {
					ix := ox*p.StrideW + kx - p.PadL
					dst := row + (ky*p.KernelW+kx)*c
					if iy < 0 || iy >= h || ix < 0 || ix >= w {
						continue // leave zeros
					}
					src := (iy*w + ix) * c
					copy(out.Data[dst:dst+c], in.Data[src:src+c])
				}
			}
		}
	}
	return out, nil
}

// FilterMatrix flattens a group-1 convolution weight [KH,KW,C,F] into the
// [K x N] filter matrix matching Im2col's column order. Only tests call
// it: codegen/execute_test.go runs a lowered convolution through Execute.
func FilterMatrix(w *tensor.Tensor) (*tensor.Tensor, error) {
	if len(w.Shape) != 4 {
		return nil, fmt.Errorf("lower: want [KH,KW,C,F] weight, got %v", w.Shape)
	}
	k := w.Shape[0] * w.Shape[1] * w.Shape[2]
	f := w.Shape[3]
	out := w.Clone()
	out.Shape = tensor.Shape{k, f}
	return out, nil
}
