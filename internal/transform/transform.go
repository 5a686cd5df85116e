// Package transform implements PIMFlow's PIM-aware graph transformation
// passes (paper §4.2.1):
//
//   - The multi-device parallelization pass splits one PIM-candidate node
//     into a GPU part and a PIM part that execute the same operation on
//     disjoint portions of the data (MD-DP execution mode).
//   - The pipelining pass splits a chain of consecutive nodes into pipeline
//     stage nodes whose middle stages overlap across GPU and PIM.
//   - The memory-layout optimization pass (§4.3.2) marks the Slice, Concat,
//     and Pad nodes those transformations introduce as elided: with NHWC
//     batch-1 tensors allocated contiguously (outputs written at padded
//     offsets), height-dimension slicing and concatenation are no-ops.
//
// All passes preserve graph semantics; the test suite verifies transformed
// graphs against the reference interpreter on real tensors.
package transform

import (
	"fmt"
	"math"

	"pimflow/internal/graph"
	"pimflow/internal/tensor"
)

// rowRange computes, for a convolution with kernel k, stride s, and top
// padding padT over an input of height h, the input row range and
// effective paddings needed to produce output rows [o0, o1).
func rowRange(o0, o1, s, k, padT, h int) (in0, in1, padTop, padBot int) {
	lo := o0*s - padT
	hi := (o1-1)*s - padT + k
	in0 = lo
	if in0 < 0 {
		in0 = 0
	}
	in1 = hi
	if in1 > h {
		in1 = h
	}
	return in0, in1, in0 - lo, hi - in1
}

// outputRowsFromPrefix returns how many output rows of a convolution are
// computable when only input rows [0, r) are available.
func outputRowsFromPrefix(r, s, k, padT, oh int) int {
	if r <= 0 {
		return 0
	}
	// Output row oy needs input rows up to oy*s - padT + k (exclusive).
	n := int(math.Floor(float64(r+padT-k)/float64(s))) + 1
	if n < 0 {
		n = 0
	}
	if n > oh {
		n = oh
	}
	return n
}

// derive returns a copy of n named name, reading inputs and writing the
// one output name+"_out": a part of n that a rewrite splices in.
func derive(n *graph.Node, name string, inputs []string) *graph.Node {
	d := *n
	d.Name, d.Inputs, d.Outputs = name, inputs, []string{name + "_out"}
	return &d
}

// heightSlice returns a Slice node named name that takes rows
// [start, end) of src (axis 1) into name+"_out".
func heightSlice(name, src string, start, end int) *graph.Node {
	return &graph.Node{Name: name, Op: graph.OpSlice, Inputs: []string{src}, Outputs: []string{name + "_out"},
		Axis: 1, Start: start, End: end}
}

// axis1Concat returns a Concat node named name that joins inputs along
// axis 1 (rows of NHWC tensors, features of [N, F] ones) into out.
func axis1Concat(name string, inputs []string, out string) *graph.Node {
	return &graph.Node{Name: name, Op: graph.OpConcat, Inputs: inputs, Outputs: []string{out}, Axis: 1}
}

// SplitMDDP rewrites the named PIM-candidate node into GPU and PIM halves
// for multi-device data-parallel execution. gpuRatio in (0,1) is the
// fraction of work assigned to the GPU (rounded to whole output rows for
// convolutions, output features for Gemm). The producer's data is sliced,
// both halves execute in parallel, and a Concat reassembles the output
// under the original tensor name.
func SplitMDDP(g *graph.Graph, nodeName string, gpuRatio float64) error {
	n := g.Node(nodeName)
	if n == nil {
		return fmt.Errorf("transform: node %q not found", nodeName)
	}
	if err := SplitMDDPNode(g, n, gpuRatio); err != nil {
		return err
	}
	return g.InferShapes()
}

// SplitMDDPNode is SplitMDDP of a node the caller already resolved (with
// a graph.Index), without the trailing whole-graph shape inference.
// Inference walks the entire graph, so a caller applying many rewrites
// (search.Apply splits every MD-DP layer of a model) pays a quadratic
// cost if each split infers; batching the rewrites and inferring once is
// linear. Until the caller runs g.InferShapes, the nodes introduced here
// have unshaped outputs.
func SplitMDDPNode(g *graph.Graph, n *graph.Node, gpuRatio float64) error {
	if !g.IsPIMCandidate(n) {
		return fmt.Errorf("transform: node %q (%s) is not a PIM candidate", n.Name, n.Op)
	}
	if gpuRatio <= 0 || gpuRatio >= 1 {
		return fmt.Errorf("transform: gpuRatio %v outside (0,1)", gpuRatio)
	}
	if n.Op == graph.OpGemm {
		return splitGemm(g, n, gpuRatio)
	}
	return splitConv(g, n, gpuRatio)
}

func splitConv(g *graph.Graph, n *graph.Node, gpuRatio float64) error {
	p := n.Conv
	in := g.Tensors[n.Inputs[0]]
	out := g.Tensors[n.Outputs[0]]
	if in == nil || !in.Shape.Valid() || out == nil || !out.Shape.Valid() {
		return fmt.Errorf("transform: node %q shapes unknown (run InferShapes)", n.Name)
	}
	h := in.Shape[1]
	oh := out.Shape[1]
	oCut := int(math.Round(float64(oh) * gpuRatio))
	if oCut < 1 || oCut >= oh {
		return fmt.Errorf("transform: node %q: output height %d cannot split at ratio %v", n.Name, oh, gpuRatio)
	}

	mk := func(tag string, o0, o1 int, dev graph.Device) []*graph.Node {
		in0, in1, pt, pb := rowRange(o0, o1, p.StrideH, p.KernelH, p.PadT, h)
		slice := heightSlice(n.Name+"_slice_"+tag, n.Inputs[0], in0, in1)
		part := derive(n, n.Name+"_"+tag, append([]string{slice.Outputs[0]}, n.Inputs[1:]...))
		part.Conv.PadT, part.Conv.PadB, part.MDDP = pt, pb, true
		part.Exec = graph.ExecHint{Mode: graph.ModeMDDP, Device: dev, GPURatio: gpuRatio}
		return []*graph.Node{slice, part}
	}
	a := mk("gpu", 0, oCut, graph.DeviceGPU)
	b := mk("pim", oCut, oh, graph.DevicePIM)
	concat := axis1Concat(n.Name+"_concat", []string{a[1].Outputs[0], b[1].Outputs[0]}, n.Outputs[0])
	repl := append(append(a, b...), concat)
	return g.ReplaceNode(n.Name, repl...)
}

func splitGemm(g *graph.Graph, n *graph.Node, gpuRatio float64) error {
	w := g.Tensors[n.Inputs[1]]
	if w == nil || !w.Shape.Valid() {
		return fmt.Errorf("transform: gemm %q weight shape unknown", n.Name)
	}
	k, nOut := w.Shape[0], w.Shape[1]
	cut := int(math.Round(float64(nOut) * gpuRatio))
	if cut < 1 || cut >= nOut {
		return fmt.Errorf("transform: gemm %q: %d features cannot split at ratio %v", n.Name, nOut, gpuRatio)
	}
	var bias *graph.TensorInfo
	if len(n.Inputs) > 2 {
		bias = g.Tensors[n.Inputs[2]]
	}
	mk := func(tag string, c0, c1 int, dev graph.Device) *graph.Node {
		wName := fmt.Sprintf("%s_w_%s", n.Name, tag)
		if w.Init != nil {
			sub := tensor.New(k, c1-c0)
			for i := 0; i < k; i++ {
				copy(sub.Data[i*(c1-c0):], w.Init.Data[i*nOut+c0:i*nOut+c1])
			}
			g.AddWeight(wName, sub)
		} else {
			g.AddParam(wName, k, c1-c0)
		}
		part := derive(n, n.Name+"_"+tag, []string{n.Inputs[0], wName})
		if bias != nil {
			bName := fmt.Sprintf("%s_b_%s", n.Name, tag)
			if bias.Init != nil {
				sub := tensor.New(c1 - c0)
				copy(sub.Data, bias.Init.Data[c0:c1])
				g.AddWeight(bName, sub)
			} else {
				g.AddParam(bName, c1-c0)
			}
			part.Inputs = append(part.Inputs, bName)
		}
		part.MDDP = true
		part.Exec = graph.ExecHint{Mode: graph.ModeMDDP, Device: dev, GPURatio: gpuRatio}
		return part
	}
	a := mk("gpu", 0, cut, graph.DeviceGPU)
	b := mk("pim", cut, nOut, graph.DevicePIM)
	concat := axis1Concat(n.Name+"_concat", []string{a.Outputs[0], b.Outputs[0]}, n.Outputs[0])
	return g.ReplaceNode(n.Name, a, b, concat)
}
