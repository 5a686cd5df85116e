package transform

import (
	"pimflow/internal/graph"
)

// ElideDataMovement implements the memory-layout optimization of §4.3.2:
// with batch-1 NHWC tensors and contiguous pre-padded allocations, the
// Slice / Concat / Pad nodes introduced by splitting and pipelining move
// no data. The pass marks eligible nodes Elided, which the GPU cost model
// and runtime treat as zero-cost. It returns the
// number of nodes elided.
//
// Eligibility:
//   - Slice along the height axis of a batch-1 NHWC tensor (a contiguous
//     sub-range of memory — a pointer adjustment).
//   - Concat along the height axis of batch-1 NHWC tensors, or along the
//     feature axis of 2-D [1, N] tensors (parts are written directly into
//     the pre-allocated destination).
//   - Pad of a batch-1 NHWC tensor (the destination buffer is
//     pre-allocated zero-initialized at the padded size).
func ElideDataMovement(g *graph.Graph) int {
	elided := 0
	for _, n := range g.Nodes {
		switch n.Op {
		case graph.OpSlice:
			in := g.Tensors[n.Inputs[0]]
			if in != nil && len(in.Shape) == 4 && in.Shape[0] == 1 && n.Axis == 1 {
				n.Elided = true
				elided++
			}
		case graph.OpConcat:
			out := g.Tensors[n.Outputs[0]]
			if out == nil || !out.Shape.Valid() {
				continue
			}
			if (len(out.Shape) == 4 || len(out.Shape) == 2) && out.Shape[0] == 1 && n.Axis == 1 {
				n.Elided = true
				elided++
			}
		case graph.OpPad:
			in := g.Tensors[n.Inputs[0]]
			if in != nil && len(in.Shape) == 4 && in.Shape[0] == 1 {
				n.Elided = true
				elided++
			}
		}
	}
	return elided
}
