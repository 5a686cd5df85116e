package codegen

import (
	"fmt"

	"pimflow/internal/graph"
	"pimflow/internal/lower"
)

// NodeWorkload derives the PIM GEMM workload of a PIM-candidate node
// (Conv except depthwise, or Gemm). For convolutions, Segments is the
// kernel height: each im2col patch gathers KH contiguous NHWC row
// segments, which the strided-GWRITE extension transfers in one command.
// Grouped (non-depthwise) convolutions lower to Groups per-group GEMMs
// sharing one workload description (lower.ConvLowering's per-group dims).
func NodeWorkload(g *graph.Graph, n *graph.Node) (Workload, error) {
	switch n.Op {
	case graph.OpConv:
		if g.IsDepthwise(n) {
			return Workload{}, fmt.Errorf("codegen: depthwise conv %q is not PIM-offloadable", n.Name)
		}
		p := n.Conv
		in := g.Tensors[n.Inputs[0]]
		w := g.Tensors[n.Inputs[1]]
		if in == nil || !in.Shape.Valid() || w == nil || !w.Shape.Valid() {
			return Workload{}, fmt.Errorf("codegen: conv %q shapes unknown", n.Name)
		}
		l, err := lower.LowerConv(in.Shape, p, w.Shape[3])
		if err != nil {
			return Workload{}, err
		}
		return Workload{M: l.Dims.M, K: l.Dims.K, N: l.Dims.N, Segments: p.KernelH, Groups: l.Groups}, nil
	case graph.OpGemm:
		in := g.Tensors[n.Inputs[0]]
		w := g.Tensors[n.Inputs[1]]
		if in == nil || !in.Shape.Valid() || w == nil || !w.Shape.Valid() {
			return Workload{}, fmt.Errorf("codegen: gemm %q shapes unknown", n.Name)
		}
		return Workload{M: in.Shape[0], K: in.Shape[1], N: w.Shape[1], Segments: 1}, nil
	default:
		return Workload{}, fmt.Errorf("codegen: op %s is not PIM-offloadable", n.Op)
	}
}
