package codegen

import (
	"pimflow/internal/graph"
	"pimflow/internal/lower"
)

// LayerInfo summarizes one PIM-relevant layer for analysis tooling: the
// lowered GEMM dimensions, arithmetic work, and the arithmetic intensity
// measure the paper's Fig 1 motivates PIM candidacy with (MACs per
// loaded/stored element).
type LayerInfo struct {
	Name         string
	Op           graph.OpType
	Depthwise    bool
	PIMCandidate bool
	// M, K, N are the lowered GEMM dimensions (per group for grouped
	// convolutions).
	M, K, N int
	// Groups is 1 except for grouped/depthwise convolutions.
	Groups int
	// Segments is the contiguous-segment count per input vector.
	Segments int
	// FLOPs is total arithmetic work (across groups).
	FLOPs int64
	// ArithIntensity is MACs / (input + weight + output elements).
	ArithIntensity float64
}

// AnalyzeLayers returns a LayerInfo for every Conv and Gemm node of the
// graph, in topological order. Shapes must be inferred.
func AnalyzeLayers(g *graph.Graph) ([]LayerInfo, error) {
	x := g.Index()
	order, err := x.InferShapes()
	if err != nil {
		return nil, err
	}
	var out []LayerInfo
	for _, i := range order {
		switch n := x.At(i); n.Op {
		case graph.OpConv:
			p := n.Conv
			in := g.Tensors[n.Inputs[0]].Shape
			w := g.Tensors[n.Inputs[1]].Shape
			l, err := lower.LowerConv(in, p, w[3])
			if err != nil {
				return nil, err
			}
			macs := float64(l.Groups) * float64(l.Dims.M) * float64(l.Dims.K) * float64(l.Dims.N)
			elems := float64(in.Elems()) + float64(w.Elems()) + float64(l.Dims.M*l.Dims.N*l.Groups)
			out = append(out, LayerInfo{
				Name: n.Name, Op: n.Op,
				Depthwise:    g.IsDepthwise(n),
				PIMCandidate: g.IsPIMCandidate(n),
				M:            l.Dims.M, K: l.Dims.K, N: l.Dims.N,
				Groups:         l.Groups,
				Segments:       p.KernelH,
				FLOPs:          int64(l.Groups) * l.Dims.FLOPs(),
				ArithIntensity: macs / elems,
			})
		case graph.OpGemm:
			in := g.Tensors[n.Inputs[0]].Shape
			w := g.Tensors[n.Inputs[1]].Shape
			m, k, nn := in[0], in[1], w[1]
			macs := float64(m) * float64(k) * float64(nn)
			elems := float64(m*k) + float64(k*nn) + float64(m*nn)
			out = append(out, LayerInfo{
				Name: n.Name, Op: n.Op,
				PIMCandidate: true,
				M:            m, K: k, N: nn,
				Groups: 1, Segments: 1,
				FLOPs:          2 * int64(m) * int64(k) * int64(nn),
				ArithIntensity: macs / elems,
			})
		}
	}
	return out, nil
}
