package models

import (
	"fmt"

	"pimflow/internal/graph"
	"pimflow/internal/tensor"
)

// BERT builds a BERT-base encoder stack (Devlin et al.): 12 layers, hidden
// size 768, 12 attention heads, FFN size 3072. The input is a [seq, 768]
// embedding matrix; FC (Gemm) layers are PIM candidates while the
// attention matmuls and normalizations stay on GPU. The paper evaluates
// sequence lengths 3 and 64 in the model-type sensitivity study (Fig 16).
func BERT(o Options) *graph.Graph {
	seq := o.SeqLen
	if seq <= 0 {
		seq = 64
	}
	const (
		hidden = 768
		heads  = 12
		ffn    = 3072
		layers = 12
	)
	b := graph.NewBuilder("bert-base", 1, seq, hidden, 1)
	b.Light = o.Light
	g := b.G
	// Rebuild the input as a 2-D [seq, hidden] tensor: the builder's NHWC
	// input convention does not fit transformers, so we replace it.
	delete(g.Tensors, "input")
	g.Inputs = g.Inputs[:0]
	g.AddInput("input", seq, hidden)

	addParam := func(name string, shape ...int) string {
		if o.Light {
			g.AddParam(name, shape...)
		} else {
			t := tensor.New(shape...)
			t.FillRandom(int64(len(name)) * 1315423911)
			fan := shape[0]
			for i := range t.Data {
				t.Data[i] /= float32(fan)
			}
			g.AddWeight(name, t)
		}
		return name
	}
	gemm := func(layer int, tag, in string, k, n int) string {
		name := fmt.Sprintf("l%d_%s", layer, tag)
		w := addParam(name+"_w", k, n)
		bias := addParam(name+"_b", n)
		out := name + "_out"
		g.AddNode(&graph.Node{Name: name, Op: graph.OpGemm, Inputs: []string{in, w, bias}, Outputs: []string{out}})
		return out
	}
	unary := func(layer int, tag string, op graph.OpType, in string) string {
		name := fmt.Sprintf("l%d_%s", layer, tag)
		out := name + "_out"
		g.AddNode(&graph.Node{Name: name, Op: op, Inputs: []string{in}, Outputs: []string{out}})
		return out
	}
	add := func(layer int, tag, a, bIn string) string {
		name := fmt.Sprintf("l%d_%s", layer, tag)
		out := name + "_out"
		g.AddNode(&graph.Node{Name: name, Op: graph.OpAdd, Inputs: []string{a, bIn}, Outputs: []string{out}})
		return out
	}

	cur := "input"
	for l := 0; l < layers; l++ {
		// Self-attention. Q/K/V projections are PIM-candidate Gemms; the
		// attention score/value matmuls stay on GPU. We model the
		// multi-head attention score computation as [S,768]x[768,S]-shaped
		// work via 2-D matmuls per the head-merged formulation.
		q := gemm(l, "q", cur, hidden, hidden)
		k := gemm(l, "k", cur, hidden, hidden)
		v := gemm(l, "v", cur, hidden, hidden)
		// scores = Q x K^T, modeled head-merged as [S,768] x [768,S].
		kt := unary(l, "kT", graph.OpTranspose, k)
		scoreName := fmt.Sprintf("l%d_scores", l)
		g.AddNode(&graph.Node{Name: scoreName, Op: graph.OpMatMul, Inputs: []string{q, kt}, Outputs: []string{scoreName + "_out"}})
		scores := scoreName + "_out"
		probs := unary(l, "probs", graph.OpSoftmax, scores)
		ctxName := fmt.Sprintf("l%d_ctx", l)
		g.AddNode(&graph.Node{Name: ctxName, Op: graph.OpMatMul, Inputs: []string{probs, v}, Outputs: []string{ctxName + "_out"}})
		ctx := ctxName + "_out"
		proj := gemm(l, "attn_out", ctx, hidden, hidden)
		res1 := add(l, "res1", proj, cur)
		ln1 := unary(l, "ln1", graph.OpLayerNorm, res1)
		// Feed-forward network: the memory-bound Gemms PIM accelerates.
		up := gemm(l, "ffn_up", ln1, hidden, ffn)
		act := unary(l, "gelu", graph.OpGelu, up)
		down := gemm(l, "ffn_down", act, ffn, hidden)
		res2 := add(l, "res2", down, ln1)
		cur = unary(l, "ln2", graph.OpLayerNorm, res2)
	}
	g.MarkOutput(cur)
	if err := g.InferShapes(); err != nil {
		panic(fmt.Sprintf("models: BERT shape inference: %v", err))
	}
	_ = heads // heads are merged in the 2-D formulation
	return g
}
