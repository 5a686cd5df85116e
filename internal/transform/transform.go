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
	"strings"

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

// block hands out one rewrite's nodes, tensor-name lists and names from
// allocations sized up front, so a rewrite allocates per kind of object,
// not per node, list or name.
type block struct {
	nodes []graph.Node
	names []string
	text  strings.Builder
}

// grow sizes the block for the given numbers of nodes and list entries
// and bytes of names.
func (b *block) grow(nodes, names, text int) {
	b.nodes, b.names = make([]graph.Node, nodes), make([]string, names)
	b.text.Grow(text)
}

// node returns the block's next node.
func (b *block) node() *graph.Node {
	n := &b.nodes[0]
	b.nodes = b.nodes[1:]
	return n
}

// list returns the name list first, rest..., cut from the block.
func (b *block) list(first string, rest ...string) []string {
	b.names[0] = first
	k := 1 + copy(b.names[1:], rest)
	l := b.names[:k:k]
	b.names = b.names[k:]
	return l
}

// name returns the concatenation of parts, cut from the block's text (a
// Builder never rewrites what it wrote, so earlier names stay valid).
func (b *block) name(parts ...string) string {
	start := b.text.Len()
	for _, p := range parts {
		b.text.WriteString(p)
	}
	return b.text.String()[start:]
}

// outSuffix ends the output name of a node a rewrite generates: node X
// writes X_out.
const outSuffix = "_out"

// derive makes d a copy of n named name that reads inputs and writes
// outputs: a part of n that a rewrite generates.
func derive(d, n *graph.Node, name string, inputs, outputs []string) {
	*d = *n
	d.Name, d.Inputs, d.Outputs = name, inputs, outputs
}

// heightSlice makes s a Slice node named name that takes rows
// [start, end) (axis 1) of its input.
func heightSlice(s *graph.Node, name string, inputs, outputs []string, start, end int) {
	*s = graph.Node{Name: name, Op: graph.OpSlice, Inputs: inputs, Outputs: outputs, Axis: 1, Start: start, End: end}
}

// axis1Concat makes c a Concat node named name that joins its inputs
// along axis 1 (rows of NHWC tensors, features of [N, F] ones).
func axis1Concat(c *graph.Node, name string, inputs, outputs []string) {
	*c = graph.Node{Name: name, Op: graph.OpConcat, Inputs: inputs, Outputs: outputs, Axis: 1}
}

// SplitMDDP splices MDDPParts of the named node into g where the node
// stood, and re-infers g's shapes.
//
// Only tests call it: transform's, runtime's, search's and verify's.
func SplitMDDP(g *graph.Graph, nodeName string, gpuRatio float64) error {
	n := g.Node(nodeName)
	if n == nil {
		return fmt.Errorf("transform: node %q not found", nodeName)
	}
	nodes, weights, err := MDDPParts(g, n, gpuRatio)
	if err != nil {
		return err
	}
	for _, w := range weights {
		g.Tensors[w.Name] = w
	}
	if err := g.ReplaceNode(n.Name, nodes...); err != nil {
		return err
	}
	return g.InferShapes()
}

// MDDPParts returns, without changing g, the nodes that replace the
// PIM-candidate node n for multi-device data-parallel (MD-DP) execution,
// and the weight records they add. gpuRatio in (0,1) is the fraction of
// work on the GPU, rounded to whole output rows for a convolution and to
// output features for a Gemm. A convolution gives a height Slice of n's
// input and a part for each device (Slice, GPU part, Slice, PIM part); a
// Gemm gives the two parts, each reading the input whole and its own
// columns of the weight and bias, whose records come back in weights.
// The last node, a Concat, re-creates n's output under its name at its
// shape, so the nodes go where n stood: they read only n's inputs, the
// new weights and each other. n's input and output must be shaped.
func MDDPParts(g *graph.Graph, n *graph.Node, gpuRatio float64) ([]*graph.Node, []*graph.TensorInfo, error) {
	if !g.IsPIMCandidate(n) {
		return nil, nil, fmt.Errorf("transform: node %q (%s) is not a PIM candidate", n.Name, n.Op)
	}
	if gpuRatio <= 0 || gpuRatio >= 1 {
		return nil, nil, fmt.Errorf("transform: gpuRatio %v outside (0,1)", gpuRatio)
	}
	if n.Op == graph.OpGemm {
		return gemmParts(g, n, gpuRatio)
	}
	nodes, err := convParts(g, n, gpuRatio)
	return nodes, nil, err
}

func convParts(g *graph.Graph, n *graph.Node, gpuRatio float64) ([]*graph.Node, error) {
	p := n.Conv
	in := g.Tensors[n.Inputs[0]]
	out := g.Tensors[n.Outputs[0]]
	if in == nil || !in.Shape.Valid() || out == nil || !out.Shape.Valid() {
		return nil, fmt.Errorf("transform: node %q shapes unknown (run InferShapes)", n.Name)
	}
	h := in.Shape[1]
	oh := out.Shape[1]
	oCut := int(math.Round(float64(oh) * gpuRatio))
	if oCut < 1 || oCut >= oh {
		return nil, fmt.Errorf("transform: node %q: output height %d cannot split at ratio %v", n.Name, oh, gpuRatio)
	}

	var b block
	b.grow(5, 2*len(n.Inputs)+9, 5*len(n.Name)+51)
	nodes := make([]*graph.Node, 0, 5)
	mk := func(tag string, o0, o1 int, dev graph.Device) string {
		in0, in1, pt, pb := rowRange(o0, o1, p.StrideH, p.KernelH, p.PadT, h)
		sliceOut, partOut := b.name(n.Name, "_slice_", tag, outSuffix), b.name(n.Name, "_", tag, outSuffix)
		slice, part := b.node(), b.node()
		heightSlice(slice, strings.TrimSuffix(sliceOut, outSuffix), b.list(n.Inputs[0]), b.list(sliceOut), in0, in1)
		derive(part, n, strings.TrimSuffix(partOut, outSuffix), b.list(sliceOut, n.Inputs[1:]...), b.list(partOut))
		part.Conv.PadT, part.Conv.PadB, part.MDDP = pt, pb, true
		part.Exec = graph.ExecHint{Mode: graph.ModeMDDP, Device: dev, GPURatio: gpuRatio}
		nodes = append(nodes, slice, part)
		return partOut
	}
	gpuOut := mk("gpu", 0, oCut, graph.DeviceGPU)
	pimOut := mk("pim", oCut, oh, graph.DevicePIM)
	concat := b.node()
	axis1Concat(concat, b.name(n.Name, "_concat"), b.list(gpuOut, pimOut), b.list(n.Outputs[0]))
	return append(nodes, concat), nil
}

func gemmParts(g *graph.Graph, n *graph.Node, gpuRatio float64) ([]*graph.Node, []*graph.TensorInfo, error) {
	w := g.Tensors[n.Inputs[1]]
	if w == nil || !w.Shape.Valid() {
		return nil, nil, fmt.Errorf("transform: gemm %q weight shape unknown", n.Name)
	}
	k, nOut := w.Shape[0], w.Shape[1]
	cut := int(math.Round(float64(nOut) * gpuRatio))
	if cut < 1 || cut >= nOut {
		return nil, nil, fmt.Errorf("transform: gemm %q: %d features cannot split at ratio %v", n.Name, nOut, gpuRatio)
	}
	var bias *graph.TensorInfo
	if len(n.Inputs) > 2 {
		bias = g.Tensors[n.Inputs[2]]
	}
	var b block
	b.grow(3, 5, 7*len(n.Name)+47)
	nodes := make([]*graph.Node, 0, 3)
	var weights []*graph.TensorInfo
	// weight declares the columns [c0, c1) of a weight or bias, copying
	// its data when the source has data.
	weight := func(name string, src *graph.TensorInfo, shape tensor.Shape, c0, c1 int) {
		ti := &graph.TensorInfo{Name: name, Shape: shape, Param: true}
		if src.Init != nil {
			ti.Init = tensor.New(shape...)
			for i := 0; i < shape.Elems()/(c1-c0); i++ {
				copy(ti.Init.Data[i*(c1-c0):], src.Init.Data[i*nOut+c0:i*nOut+c1])
			}
		}
		weights = append(weights, ti)
	}
	mk := func(tag string, c0, c1 int, dev graph.Device) string {
		inputs := []string{n.Inputs[0], b.name(n.Name, "_w_", tag)}
		weight(inputs[1], w, tensor.Shape{k, c1 - c0}, c0, c1)
		if bias != nil {
			inputs = append(inputs, b.name(n.Name, "_b_", tag))
			weight(inputs[2], bias, tensor.Shape{c1 - c0}, c0, c1)
		}
		out := b.name(n.Name, "_", tag, outSuffix)
		part := b.node()
		derive(part, n, strings.TrimSuffix(out, outSuffix), inputs, b.list(out))
		part.MDDP = true
		part.Exec = graph.ExecHint{Mode: graph.ModeMDDP, Device: dev, GPURatio: gpuRatio}
		nodes = append(nodes, part)
		return out
	}
	gpuOut := mk("gpu", 0, cut, graph.DeviceGPU)
	pimOut := mk("pim", cut, nOut, graph.DevicePIM)
	concat := b.node()
	axis1Concat(concat, b.name(n.Name, "_concat"), b.list(gpuOut, pimOut), b.list(n.Outputs[0]))
	return append(nodes, concat), weights, nil
}
