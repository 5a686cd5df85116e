// Package graph implements the ONNX-like model graph intermediate
// representation that PIMFlow's transformation passes operate on. Graphs
// hold named tensors (activations and weight initializers), nodes in
// insertion order, and per-node attributes mirroring ONNX opset 13
// conventions, restricted to the operators present in the paper's model
// suite (CNN backbones plus a BERT-style encoder).
package graph

import (
	"fmt"
	"maps"
)

// OpType identifies a node's operator.
type OpType string

// Operators supported by the IR. PIM-candidate operators (paper §4.2.1)
// are Conv (except depthwise) and Gemm; everything else executes on GPU.
const (
	OpConv          OpType = "Conv"          // NHWC convolution, optionally grouped/depthwise
	OpGemm          OpType = "Gemm"          // fully-connected: [M,K] x [K,N]
	OpMatMul        OpType = "MatMul"        // batched matmul (BERT attention)
	OpRelu          OpType = "Relu"          // elementwise max(0, x)
	OpClip          OpType = "Clip"          // elementwise clamp (ReLU6)
	OpSigmoid       OpType = "Sigmoid"       // elementwise logistic
	OpSiLU          OpType = "SiLU"          // x * sigmoid(x) (EfficientNet "swish")
	OpGelu          OpType = "Gelu"          // BERT activation
	OpAdd           OpType = "Add"           // elementwise add (residual)
	OpMul           OpType = "Mul"           // elementwise/broadcast multiply (SE scale)
	OpGlobalAvgPool OpType = "GlobalAvgPool" // NHWC -> [N,1,1,C]
	OpMaxPool       OpType = "MaxPool"       // spatial max pooling
	OpAvgPool       OpType = "AvgPool"       // spatial average pooling
	OpFlatten       OpType = "Flatten"       // NHWC -> [N, H*W*C]
	OpConcat        OpType = "Concat"        // concat along attribute axis
	OpSlice         OpType = "Slice"         // slice along attribute axis
	OpPad           OpType = "Pad"           // spatial zero padding
	OpSoftmax       OpType = "Softmax"       // last-axis softmax
	OpLayerNorm     OpType = "LayerNorm"     // BERT layer normalization
	OpIdentity      OpType = "Identity"      // pass-through (stage boundaries)
	OpTranspose     OpType = "Transpose"     // 2-D matrix transpose (BERT K^T)
	OpBatchNorm     OpType = "BatchNorm"     // inference-mode batch norm (folded by the compiler)
)

// Attrs is the node attribute bag. Values are int slices, floats, or
// strings, matching the subset of ONNX attribute kinds the IR needs. The
// zero value is an empty bag, and each kind's map stays nil until its
// first Set, so nodes pay only for the kinds they hold.
type Attrs struct {
	Ints   map[string][]int
	Floats map[string]float64
	Strs   map[string]string
}

// Clone deep-copies the attribute bag, presizing each map it allocates
// and packing the integer lists into one block.
func (a Attrs) Clone() Attrs {
	var c Attrs
	if len(a.Ints) > 0 {
		total := 0
		for _, v := range a.Ints {
			total += len(v)
		}
		vals := make([]int, 0, total)
		c.Ints = make(map[string][]int, len(a.Ints))
		for k, v := range a.Ints {
			n := len(vals)
			vals = append(vals, v...)
			c.Ints[k] = vals[n:len(vals):len(vals)]
		}
	}
	if len(a.Floats) > 0 {
		c.Floats = maps.Clone(a.Floats)
	}
	if len(a.Strs) > 0 {
		c.Strs = maps.Clone(a.Strs)
	}
	return c
}

// Int returns the first element of integer attribute k, or def.
func (a Attrs) Int(k string, def int) int {
	if v, ok := a.Ints[k]; ok && len(v) > 0 {
		return v[0]
	}
	return def
}

// IntList returns integer attribute k, or def.
func (a Attrs) IntList(k string, def []int) []int {
	if v, ok := a.Ints[k]; ok {
		return v
	}
	return def
}

// Float returns float attribute k, or def.
func (a Attrs) Float(k string, def float64) float64 {
	if v, ok := a.Floats[k]; ok {
		return v
	}
	return def
}

// Str returns string attribute k, or def.
func (a Attrs) Str(k, def string) string {
	if v, ok := a.Strs[k]; ok {
		return v
	}
	return def
}

// SetInts stores an integer-list attribute.
func (a *Attrs) SetInts(k string, v ...int) {
	if a.Ints == nil {
		a.Ints = map[string][]int{}
	}
	a.Ints[k] = v
}

// SetFloat stores a float attribute.
func (a *Attrs) SetFloat(k string, v float64) {
	if a.Floats == nil {
		a.Floats = map[string]float64{}
	}
	a.Floats[k] = v
}

// SetStr stores a string attribute.
func (a *Attrs) SetStr(k, v string) {
	if a.Strs == nil {
		a.Strs = map[string]string{}
	}
	a.Strs[k] = v
}

// MinInputs returns the minimum input count of an operator and whether
// the operator is known. Shape inference (and the interpreter) index
// node inputs up to this arity unconditionally, so Validate and the
// verify layer enforce it before inference runs.
func MinInputs(op OpType) (int, bool) {
	switch op {
	case OpConv, OpGemm, OpMatMul, OpAdd, OpMul:
		return 2, true
	case OpBatchNorm:
		return 5, true
	case OpRelu, OpClip, OpSigmoid, OpSiLU, OpGelu, OpSoftmax, OpLayerNorm,
		OpIdentity, OpTranspose, OpGlobalAvgPool, OpMaxPool, OpAvgPool,
		OpFlatten, OpConcat, OpSlice, OpPad:
		return 1, true
	default:
		return 0, false
	}
}

// ConvParams is the decoded attribute set of a Conv node.
type ConvParams struct {
	KernelH, KernelW int
	StrideH, StrideW int
	// Pads are top, left, bottom, right.
	PadT, PadL, PadB, PadR int
	Group                  int
}

// ConvParamsOf decodes a Conv node's attributes, applying ONNX defaults.
func ConvParamsOf(n *Node) (ConvParams, error) {
	if n.Op != OpConv {
		return ConvParams{}, fmt.Errorf("graph: node %q is %s, not Conv", n.Name, n.Op)
	}
	k := n.Attrs.IntList("kernel_shape", nil)
	if len(k) != 2 {
		return ConvParams{}, fmt.Errorf("graph: Conv %q missing kernel_shape", n.Name)
	}
	s := n.Attrs.IntList("strides", []int{1, 1})
	p := n.Attrs.IntList("pads", []int{0, 0, 0, 0})
	if len(s) != 2 || len(p) != 4 {
		return ConvParams{}, fmt.Errorf("graph: Conv %q malformed strides/pads", n.Name)
	}
	if s[0] < 1 || s[1] < 1 {
		return ConvParams{}, fmt.Errorf("graph: Conv %q non-positive strides %dx%d", n.Name, s[0], s[1])
	}
	g := n.Attrs.Int("group", 1)
	if g < 1 {
		return ConvParams{}, fmt.Errorf("graph: Conv %q group %d < 1", n.Name, g)
	}
	return ConvParams{
		KernelH: k[0], KernelW: k[1],
		StrideH: s[0], StrideW: s[1],
		PadT: p[0], PadL: p[1], PadB: p[2], PadR: p[3],
		Group: g,
	}, nil
}
