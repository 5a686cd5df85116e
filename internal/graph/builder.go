package graph

import (
	"fmt"
	"hash/fnv"

	"pimflow/internal/tensor"
)

// Builder provides a fluent API for constructing model graphs. Weights are
// initialized with small deterministic pseudo-random values seeded by the
// weight name, so models are reproducible across runs without external
// weight files. Shapes are inferred incrementally as nodes are added, so
// layer constructors can depend on the current tensor's shape.
type Builder struct {
	G *Graph
	// Light skips materializing weight initializer data: the graph can be
	// compiled and timed but not functionally executed. Large model-zoo
	// graphs use this for simulation-only workloads.
	Light bool

	cur string // current tensor name
	n   int    // node counter for auto-naming
}

// NewBuilder creates a builder over a fresh graph with one NHWC input.
func NewBuilder(name string, inputShape ...int) *Builder {
	b := &Builder{G: New(name)}
	b.G.AddInput("input", inputShape...)
	b.cur = "input"
	return b
}

// Cur returns the name of the current tensor.
func (b *Builder) Cur() string { return b.cur }

// CurShape returns the shape of the current tensor.
func (b *Builder) CurShape() tensor.Shape { return b.G.Tensors[b.cur].Shape }

// SetCur retargets the builder at an existing tensor.
func (b *Builder) SetCur(name string) *Builder {
	if _, ok := b.G.Tensors[name]; !ok {
		panic(fmt.Sprintf("graph: SetCur(%q): unknown tensor", name))
	}
	b.cur = name
	return b
}

func (b *Builder) nextName(prefix string) string {
	b.n++
	return fmt.Sprintf("%s_%d", prefix, b.n)
}

// add appends the node and infers its output shape immediately so that
// later builder calls can depend on it.
func (b *Builder) add(n *Node) {
	b.G.AddNode(n)
	if err := b.G.inferNode(n); err != nil {
		panic(fmt.Sprintf("graph: builder %s %q: %v", n.Op, n.Name, err))
	}
	b.cur = n.Outputs[0]
}

func seedFor(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

func (b *Builder) weight(name string, shape ...int) string {
	if b.Light {
		b.G.AddParam(name, shape...)
		return name
	}
	t := tensor.New(shape...)
	t.FillRandom(seedFor(name))
	// Scale down so deep networks keep activations in a sane range: roughly
	// 1/fan-in, where fan-in is elements per output feature.
	fanIn := t.Shape.Elems() / shape[len(shape)-1]
	scale := 1.0 / float32(fanIn+1)
	for i := range t.Data {
		t.Data[i] *= scale
	}
	b.G.AddWeight(name, t)
	return name
}

// Conv appends a convolution with weight [kh,kw,cin/group,f] and bias [f].
// pads is [t,l,b,r].
func (b *Builder) Conv(f, kh, kw, sh, sw int, pads [4]int, group int) *Builder {
	name := b.nextName("conv")
	in := b.G.Tensors[b.cur]
	if in == nil || len(in.Shape) != 4 {
		panic(fmt.Sprintf("graph: Conv after non-NHWC tensor %q", b.cur))
	}
	cin := in.Shape[3]
	if cin%group != 0 {
		panic(fmt.Sprintf("graph: Conv %q: C=%d not divisible by group %d", name, cin, group))
	}
	w := b.weight(name+"_w", kh, kw, cin/group, f)
	bias := b.weight(name+"_b", f)
	b.add(&Node{Name: name, Op: OpConv, Inputs: []string{b.cur, w, bias}, Outputs: []string{name + "_out"},
		Conv: ConvParams{KernelH: kh, KernelW: kw, StrideH: sh, StrideW: sw,
			PadT: pads[0], PadL: pads[1], PadB: pads[2], PadR: pads[3], Group: group}})
	return b
}

// PointwiseConv appends a 1x1 convolution with f output channels.
func (b *Builder) PointwiseConv(f int) *Builder {
	return b.Conv(f, 1, 1, 1, 1, [4]int{0, 0, 0, 0}, 1)
}

// DepthwiseConv appends a depthwise convolution (group == C).
func (b *Builder) DepthwiseConv(kh, kw, sh, sw int, pads [4]int) *Builder {
	c := b.CurShape()[3]
	return b.Conv(c, kh, kw, sh, sw, pads, c)
}

// Gemm appends a fully-connected layer with n output features.
func (b *Builder) Gemm(nOut int) *Builder {
	name := b.nextName("fc")
	in := b.G.Tensors[b.cur]
	if in == nil || len(in.Shape) != 2 {
		panic(fmt.Sprintf("graph: Gemm after non-2D tensor %q (shape %v)", b.cur, in.Shape))
	}
	k := in.Shape[1]
	w := b.weight(name+"_w", k, nOut)
	bias := b.weight(name+"_b", nOut)
	n := &Node{Name: name, Op: OpGemm, Inputs: []string{b.cur, w, bias}, Outputs: []string{name + "_out"}}
	b.add(n)
	return b
}

func (b *Builder) unary(op OpType, prefix string, set func(*Node)) *Builder {
	name := b.nextName(prefix)
	n := &Node{Name: name, Op: op, Inputs: []string{b.cur}, Outputs: []string{name + "_out"}}
	if set != nil {
		set(n)
	}
	b.add(n)
	return b
}

// Relu appends a ReLU.
func (b *Builder) Relu() *Builder { return b.unary(OpRelu, "relu", nil) }

// Relu6 appends a Clip(0, 6).
func (b *Builder) Relu6() *Builder {
	return b.unary(OpClip, "relu6", func(n *Node) { n.Min, n.Max = 0, 6 })
}

// SiLU appends a swish activation.
func (b *Builder) SiLU() *Builder { return b.unary(OpSiLU, "silu", nil) }

// Sigmoid appends a sigmoid.
func (b *Builder) Sigmoid() *Builder { return b.unary(OpSigmoid, "sigmoid", nil) }

// Gelu appends a GELU.
func (b *Builder) Gelu() *Builder { return b.unary(OpGelu, "gelu", nil) }

// Softmax appends a last-axis softmax.
func (b *Builder) Softmax() *Builder { return b.unary(OpSoftmax, "softmax", nil) }

// LayerNorm appends a layer normalization over the last axis.
func (b *Builder) LayerNorm() *Builder { return b.unary(OpLayerNorm, "ln", nil) }

// Flatten reshapes NHWC to [N, H*W*C].
func (b *Builder) Flatten() *Builder { return b.unary(OpFlatten, "flatten", nil) }

// GlobalAvgPool reduces spatial dims to 1x1.
func (b *Builder) GlobalAvgPool() *Builder { return b.unary(OpGlobalAvgPool, "gap", nil) }

// MaxPool appends spatial max pooling.
func (b *Builder) MaxPool(k, s int, pads [4]int) *Builder {
	return b.unary(OpMaxPool, "maxpool", func(n *Node) { n.Conv = poolWindow(k, s, pads) })
}

// AvgPool appends spatial average pooling.
func (b *Builder) AvgPool(k, s int, pads [4]int) *Builder {
	return b.unary(OpAvgPool, "avgpool", func(n *Node) { n.Conv = poolWindow(k, s, pads) })
}

func poolWindow(k, s int, pads [4]int) ConvParams {
	return ConvParams{KernelH: k, KernelW: k, StrideH: s, StrideW: s,
		PadT: pads[0], PadL: pads[1], PadB: pads[2], PadR: pads[3], Group: 1}
}

// Concat appends a concatenation of the current tensor with others along
// the given axis (1 = height, 3 = channels for NHWC).
func (b *Builder) Concat(axis int, others ...string) *Builder {
	name := b.nextName("concat")
	b.add(&Node{Name: name, Op: OpConcat, Inputs: append([]string{b.cur}, others...), Outputs: []string{name + "_out"}, Axis: axis})
	return b
}

// Add appends an elementwise add of the current tensor with other.
func (b *Builder) Add(other string) *Builder {
	name := b.nextName("add")
	b.add(&Node{Name: name, Op: OpAdd, Inputs: []string{b.cur, other}, Outputs: []string{name + "_out"}})
	return b
}

// Mul appends an elementwise/broadcast multiply of the current tensor with
// other.
func (b *Builder) Mul(other string) *Builder {
	name := b.nextName("mul")
	b.add(&Node{Name: name, Op: OpMul, Inputs: []string{b.cur, other}, Outputs: []string{name + "_out"}})
	return b
}

// Finish marks the current tensor as the graph output, infers shapes, and
// returns the graph.
func (b *Builder) Finish() (*Graph, error) {
	b.G.MarkOutput(b.cur)
	if err := b.G.InferShapes(); err != nil {
		return nil, err
	}
	return b.G, nil
}

// MustFinish is Finish that panics on error; model-zoo builders use it
// because their construction is deterministic.
func (b *Builder) MustFinish() *Graph {
	g, err := b.Finish()
	if err != nil {
		panic(err)
	}
	return g
}
