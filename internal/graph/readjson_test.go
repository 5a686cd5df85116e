package graph

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"pimflow/internal/tensor"
)

// Only graph's tests read graph files back (no binary takes a graph file),
// so the reader lives here: the round trip, the attribute defaults and
// the rejection of attributes no pass reads are checked against it.

// setAttrs fills n's typed fields from the attribute maps, starting from
// the ONNX defaults: unit strides (a pool's are its kernel), zero pads,
// group 1, axis 1, a Slice to the end of its axis and an open Clip. An
// attribute no pass reads for n's operator, or one of the wrong length,
// fails with an error naming the node and the attribute.
func (jn *jsonNode) setAttrs(n *Node) error {
	p := &n.Conv
	switch n.Op {
	case OpConv, OpMaxPool, OpAvgPool:
		*p = ConvParams{StrideH: 1, StrideW: 1, Group: 1}
	case OpConcat:
		n.Axis = 1
	case OpSlice:
		n.Axis, n.End = 1, -1
	case OpClip:
		n.Min, n.Max = math.Inf(-1), math.Inf(1)
	}
	conv := n.Op == OpConv
	window := conv || n.Op == OpMaxPool || n.Op == OpAvgPool
	unread := func(name string) error {
		return fmt.Errorf("graph: %s %q: no pass reads attribute %q", n.Op, n.Name, name)
	}
	var elided, mddp, pipelined int
	for _, name := range sortedKeys(jn.Ints) {
		var dst []*int
		switch {
		case name == "kernel_shape" && window:
			dst = []*int{&p.KernelH, &p.KernelW}
		case name == "strides" && window:
			dst = []*int{&p.StrideH, &p.StrideW}
		case name == "pads" && (window || n.Op == OpPad):
			dst = []*int{&p.PadT, &p.PadL, &p.PadB, &p.PadR}
		case name == "group" && conv:
			dst = []*int{&p.Group}
		case name == "axis" && (n.Op == OpConcat || n.Op == OpSlice):
			dst = []*int{&n.Axis}
		case name == "start" && n.Op == OpSlice:
			dst = []*int{&n.Start}
		case name == "end" && n.Op == OpSlice:
			dst = []*int{&n.End}
		case name == "elided":
			dst = []*int{&elided}
		case name == "mddp":
			dst = []*int{&mddp}
		case name == "pipeline":
			dst = []*int{&pipelined}
		default:
			return unread(name)
		}
		v := jn.Ints[name]
		if len(v) != len(dst) {
			return fmt.Errorf("graph: %s %q: attribute %q has %d values, want %d", n.Op, n.Name, name, len(v), len(dst))
		}
		for i, d := range dst {
			*d = v[i]
		}
	}
	if window && jn.Ints["kernel_shape"] == nil {
		return fmt.Errorf("graph: %s %q: missing kernel_shape", n.Op, n.Name)
	}
	if !conv && window && jn.Ints["strides"] == nil {
		p.StrideH, p.StrideW = p.KernelH, p.KernelW
	}
	n.Elided, n.MDDP, n.Pipelined = elided == 1, mddp == 1, pipelined == 1
	for _, name := range sortedKeys(jn.Floats) {
		switch v := jn.Floats[name]; {
		case name == "min" && n.Op == OpClip:
			n.Min = v
		case name == "max" && n.Op == OpClip:
			n.Max = v
		case name == "epsilon" && n.Op == OpBatchNorm && v > 0:
			n.Epsilon = v
		case name == "epsilon" && n.Op == OpBatchNorm:
			return fmt.Errorf("graph: %s %q: epsilon %v is not positive", n.Op, n.Name, v)
		default:
			return unread(name)
		}
	}
	if names := sortedKeys(jn.Strs); len(names) > 0 {
		return unread(names[0])
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ReadJSON deserializes a graph written by WriteJSON, decodes each node's
// attributes into its typed fields (jsonNode.setAttrs), validates it
// structurally (Validate), and re-infers shapes. Any graph it accepts
// satisfies the verify package's default graph invariants; the fuzz test
// in json_fuzz_test.go holds it to that contract.
func ReadJSON(r io.Reader) (*Graph, error) {
	var jg jsonGraph
	if err := json.NewDecoder(r).Decode(&jg); err != nil {
		return nil, fmt.Errorf("graph: decode: %w", err)
	}
	g := New(jg.Name)
	g.Inputs = jg.Inputs
	g.Outputs = jg.Outputs
	for _, jt := range jg.Tensors {
		if jt.Name == "" {
			return nil, fmt.Errorf("graph: tensor with empty name")
		}
		for _, d := range jt.Shape {
			if d <= 0 {
				return nil, fmt.Errorf("graph: tensor %q has non-positive dim in shape %v", jt.Name, jt.Shape)
			}
		}
		ti := &TensorInfo{Name: jt.Name, Shape: tensor.Shape(jt.Shape), Param: jt.Param}
		if len(jt.Data) > 0 {
			t, err := tensor.FromSlice(jt.Data, jt.Shape...)
			if err != nil {
				return nil, fmt.Errorf("graph: tensor %q: %w", jt.Name, err)
			}
			ti.Init = t
			ti.Param = true
		}
		g.Tensors[jt.Name] = ti
	}
	for _, jn := range jg.Nodes {
		n := &Node{Name: jn.Name, Op: OpType(jn.Op), Inputs: jn.Inputs, Outputs: jn.Outputs}
		if err := jn.setAttrs(n); err != nil {
			return nil, err
		}
		// Mirror AddNode: declare output tensors the document omitted.
		for _, out := range n.Outputs {
			if out == "" {
				continue // caught by Validate with a precise error
			}
			if _, ok := g.Tensors[out]; !ok {
				g.Tensors[out] = &TensorInfo{Name: out}
			}
		}
		g.Nodes = append(g.Nodes, n)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := g.InferShapes(); err != nil {
		return nil, err
	}
	return g, nil
}
