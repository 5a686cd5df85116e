// Package graph implements the ONNX-like model graph intermediate
// representation that PIMFlow's transformation passes operate on. Graphs
// hold named tensors (activations and weight initializers), nodes in
// insertion order, and typed per-operator attributes that files spell as
// ONNX opset 13 attributes, restricted to the operators present in the
// paper's model suite (CNN backbones plus a BERT-style encoder).
package graph

import "math"

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

// ConvParams is the window of a Conv, MaxPool or AvgPool node (a pool's
// Group is 1) and, in its pads, the padding of a Pad node.
type ConvParams struct {
	KernelH, KernelW int
	StrideH, StrideW int
	// Pads are top, left, bottom, right.
	PadT, PadL, PadB, PadR int
	Group                  int
}

// Eps returns a BatchNorm's epsilon: Epsilon, or the ONNX default 1e-5
// when that is 0.
func (n *Node) Eps() float64 {
	if n.Epsilon == 0 {
		return 1e-5
	}
	return n.Epsilon
}

// Attr is one node attribute as graph files and pipe/ profile-store keys
// spell it: the integer list Ints[:Len] or, when Len is 0, Float.
type Attr struct {
	Name  string
	Ints  [4]int
	Len   int
	Float float64
}

// AppendAttrs appends the attributes of n's typed fields to dst, integer
// lists before floats and each kind sorted by name. A field is written
// where its operator reads it, a marker when set, a Clip bound when
// finite and a BatchNorm epsilon when set.
func (n *Node) AppendAttrs(dst []Attr) []Attr {
	p := n.Conv
	conv := n.Op == OpConv
	window := conv || n.Op == OpMaxPool || n.Op == OpAvgPool
	ints := func(on bool, name string, v ...int) {
		if on {
			a := Attr{Name: name, Len: len(v)}
			copy(a.Ints[:], v)
			dst = append(dst, a)
		}
	}
	ints(n.Op == OpConcat || n.Op == OpSlice, "axis", n.Axis)
	ints(n.Elided, "elided", 1)
	ints(n.Op == OpSlice, "end", n.End)
	ints(conv, "group", p.Group)
	ints(window, "kernel_shape", p.KernelH, p.KernelW)
	ints(n.MDDP, "mddp", 1)
	ints(window || n.Op == OpPad, "pads", p.PadT, p.PadL, p.PadB, p.PadR)
	ints(n.Pipelined, "pipeline", 1)
	ints(n.Op == OpSlice, "start", n.Start)
	ints(window, "strides", p.StrideH, p.StrideW)
	floats := func(on bool, name string, v float64) {
		if on {
			dst = append(dst, Attr{Name: name, Float: v})
		}
	}
	floats(n.Op == OpBatchNorm && n.Epsilon != 0, "epsilon", n.Epsilon)
	floats(n.Op == OpClip && !math.IsInf(n.Max, 0), "max", n.Max)
	floats(n.Op == OpClip && !math.IsInf(n.Min, 0), "min", n.Min)
	return dst
}
