package transform

import (
	"fmt"
	"math"

	"pimflow/internal/graph"
	"pimflow/internal/tensor"
)

// FoldBatchNorm folds inference-mode BatchNorm nodes into their preceding
// convolution, the standard preprocessing the paper's TVM pipeline applies
// to ONNX inference graphs before PIM-aware transformation. For a BN with
// per-channel scale s, bias b, mean m, variance v and epsilon e following
// a conv with weights W and bias c:
//
//	W'[ky,kx,ci,f] = W[ky,kx,ci,f] * s[f] / sqrt(v[f]+e)
//	c'[f]          = (c[f] - m[f]) * s[f] / sqrt(v[f]+e) + b[f]
//
// A BN is foldable when its input is produced by a non-grouped-or-grouped
// Conv that has no other consumers. Weight data is rewritten when
// materialized; shape-only (light) graphs fold structurally, which
// preserves timing semantics. Returns the number of folded BN nodes.
func FoldBatchNorm(g *graph.Graph) (int, error) {
	folded := 0
	// Iterate until fixpoint: folding removes nodes, invalidating indices.
	for {
		var bn *graph.Node
		var conv *graph.Node
		x := g.Index()
		for _, n := range g.Nodes {
			if n.Op != graph.OpBatchNorm {
				continue
			}
			p := x.Producer(n.Inputs[0])
			if p == nil || p.Op != graph.OpConv {
				continue
			}
			if len(x.Consumers(p.Outputs[0])) != 1 {
				continue
			}
			bn, conv = n, p
			break
		}
		if bn == nil {
			return folded, nil
		}
		if err := foldOne(g, conv, bn); err != nil {
			return folded, err
		}
		folded++
	}
}

func foldOne(g *graph.Graph, conv, bn *graph.Node) error {
	wTI := g.Tensors[conv.Inputs[1]]
	if wTI == nil {
		return fmt.Errorf("transform: conv %q weight missing", conv.Name)
	}
	f := wTI.Shape[3]
	var biasTI *graph.TensorInfo
	if len(conv.Inputs) > 2 {
		biasTI = g.Tensors[conv.Inputs[2]]
	}
	params := make([]*graph.TensorInfo, 4)
	allData := wTI.Init != nil
	for i, name := range bn.Inputs[1:] {
		ti := g.Tensors[name]
		if ti == nil {
			return fmt.Errorf("transform: BN %q parameter %q missing", bn.Name, name)
		}
		if len(ti.Shape) != 1 || ti.Shape[0] != f {
			return fmt.Errorf("transform: BN %q parameter %q shape %v mismatches F=%d", bn.Name, name, ti.Shape, f)
		}
		params[i] = ti
		if ti.Init == nil {
			allData = false
		}
	}
	if biasTI != nil && biasTI.Init == nil {
		allData = false
	}

	if allData {
		eps := bn.Eps()
		scale, bias, mean, variance := params[0].Init, params[1].Init, params[2].Init, params[3].Init
		inv := make([]float32, f)
		for ch := 0; ch < f; ch++ {
			inv[ch] = scale.Data[ch] / float32(math.Sqrt(float64(variance.Data[ch])+eps))
		}
		newW := wTI.Init.Clone()
		for i := range newW.Data {
			newW.Data[i] *= inv[i%f]
		}
		newB := tensor.New(f)
		for ch := 0; ch < f; ch++ {
			var c float32
			if biasTI != nil {
				c = biasTI.Init.Data[ch]
			}
			newB.Data[ch] = (c-mean.Data[ch])*inv[ch] + bias.Data[ch]
		}
		wName := conv.Name + "_w_folded"
		bName := conv.Name + "_b_folded"
		g.AddWeight(wName, newW)
		g.AddWeight(bName, newB)
		conv.Inputs = []string{conv.Inputs[0], wName, bName}
	} else if biasTI == nil {
		// Structural fold on a light graph: ensure the conv has a bias
		// slot so shapes stay consistent.
		bName := conv.Name + "_b_folded"
		g.AddParam(bName, f)
		conv.Inputs = append(conv.Inputs[:2], bName)
	}

	// Rewire: the conv now produces the BN's output name directly.
	conv.Outputs[0] = bn.Outputs[0]
	g.RemoveNode(bn.Name)
	return g.InferShapes()
}
