package graph

import (
	"fmt"

	"pimflow/internal/tensor"
)

// InferShapes computes the shape of every tensor in the graph from the
// graph inputs and weight initializers, walking nodes in topological
// order. It returns an error if any node's inputs are inconsistent. A
// tensor record is written only when its shape changes, so re-inferring
// an already-shaped graph is read-only.
func (g *Graph) InferShapes() error {
	_, err := g.Index().InferShapes()
	return err
}

// InferNodes computes the output shapes of the given nodes, walking them
// in the given order: each must read only tensors that are already
// shaped or that an earlier node of the list writes. The rest of the
// graph is neither walked nor indexed, so a pass that adds nodes to a
// shaped graph infers what it added at the cost of what it added. Errors
// read as InferShapes reports them.
func (g *Graph) InferNodes(nodes []*Node) error {
	for _, n := range nodes {
		if err := g.infer(n); err != nil {
			return err
		}
	}
	return nil
}

// infer computes the node's output shapes, naming the node in an error.
func (g *Graph) infer(n *Node) error {
	if err := g.inferNode(n); err != nil {
		return fmt.Errorf("graph: %s %q: %w", n.Op, n.Name, err)
	}
	return nil
}

func (g *Graph) shapeOf(name string) (tensor.Shape, error) {
	ti, ok := g.Tensors[name]
	if !ok {
		return nil, fmt.Errorf("undeclared tensor %q", name)
	}
	if !ti.Shape.Valid() {
		return nil, fmt.Errorf("tensor %q has no shape yet", name)
	}
	return ti.Shape, nil
}

// setShape records s as the tensor's shape unless it already is. The
// recorded slice is replaced, never written through, so graphs that share
// shape slices (CloneTensors) stay independent.
func (g *Graph) setShape(name string, s tensor.Shape) {
	ti, ok := g.Tensors[name]
	if !ok {
		ti = &TensorInfo{Name: name}
		g.Tensors[name] = ti
	}
	if !ti.Shape.Equal(s) {
		ti.Shape = s.Clone()
	}
}

func (g *Graph) inferNode(n *Node) error {
	if len(n.Outputs) == 0 {
		return fmt.Errorf("node has no outputs")
	}
	switch n.Op {
	case OpConv:
		return g.inferConv(n)
	case OpGemm:
		return g.inferGemm(n)
	case OpMatMul:
		return g.inferMatMul(n)
	case OpTranspose:
		in, err := g.shapeOf(n.Inputs[0])
		if err != nil {
			return err
		}
		if len(in) != 2 {
			return fmt.Errorf("want 2-D input, got %v", in)
		}
		g.setShape(n.Outputs[0], tensor.Shape{in[1], in[0]})
		return nil
	case OpRelu, OpClip, OpSigmoid, OpSiLU, OpGelu, OpSoftmax, OpLayerNorm, OpIdentity:
		in, err := g.shapeOf(n.Inputs[0])
		if err != nil {
			return err
		}
		g.setShape(n.Outputs[0], in)
		return nil
	case OpBatchNorm:
		in, err := g.shapeOf(n.Inputs[0])
		if err != nil {
			return err
		}
		if len(in) != 4 {
			return fmt.Errorf("want NHWC input, got %v", in)
		}
		if len(n.Inputs) != 5 {
			return fmt.Errorf("want 5 inputs (x, scale, bias, mean, var), got %d", len(n.Inputs))
		}
		for _, p := range n.Inputs[1:] {
			s, err := g.shapeOf(p)
			if err != nil {
				return err
			}
			if len(s) != 1 || s[0] != in[3] {
				return fmt.Errorf("parameter %q shape %v mismatches C=%d", p, s, in[3])
			}
		}
		g.setShape(n.Outputs[0], in)
		return nil
	case OpAdd, OpMul:
		return g.inferBroadcast(n)
	case OpGlobalAvgPool:
		in, err := g.shapeOf(n.Inputs[0])
		if err != nil {
			return err
		}
		if len(in) != 4 {
			return fmt.Errorf("want NHWC input, got %v", in)
		}
		g.setShape(n.Outputs[0], tensor.Shape{in[0], 1, 1, in[3]})
		return nil
	case OpMaxPool, OpAvgPool:
		return g.inferPool(n)
	case OpFlatten:
		in, err := g.shapeOf(n.Inputs[0])
		if err != nil {
			return err
		}
		rest := 1
		for _, d := range in[1:] {
			rest *= d
		}
		if rest <= 0 {
			return fmt.Errorf("non-positive flattened size %d for %v", rest, in)
		}
		g.setShape(n.Outputs[0], tensor.Shape{in[0], rest})
		return nil
	case OpConcat:
		return g.inferConcat(n)
	case OpSlice:
		return g.inferSlice(n)
	case OpPad:
		return g.inferPad(n)
	default:
		return fmt.Errorf("unknown op %q", n.Op)
	}
}

func (g *Graph) inferConv(n *Node) error {
	p := n.Conv
	if p.StrideH < 1 || p.StrideW < 1 {
		return fmt.Errorf("non-positive strides %dx%d", p.StrideH, p.StrideW)
	}
	in, err := g.shapeOf(n.Inputs[0])
	if err != nil {
		return err
	}
	w, err := g.shapeOf(n.Inputs[1])
	if err != nil {
		return err
	}
	if len(in) != 4 {
		return fmt.Errorf("want NHWC input, got %v", in)
	}
	if len(w) != 4 {
		return fmt.Errorf("want [KH,KW,Cin/g,F] weight, got %v", w)
	}
	if w[0] != p.KernelH || w[1] != p.KernelW {
		return fmt.Errorf("weight kernel %dx%d mismatches attr %dx%d", w[0], w[1], p.KernelH, p.KernelW)
	}
	cin, f := in[3], w[3]
	if w[2]*p.Group != cin {
		return fmt.Errorf("weight Cin/g=%d with group=%d mismatches input C=%d", w[2], p.Group, cin)
	}
	if f%p.Group != 0 {
		return fmt.Errorf("output channels %d not divisible by group %d", f, p.Group)
	}
	if len(n.Inputs) > 2 {
		b, err := g.shapeOf(n.Inputs[2])
		if err != nil {
			return err
		}
		if len(b) != 1 || b[0] != f {
			return fmt.Errorf("bias shape %v mismatches F=%d", b, f)
		}
	}
	oh := (in[1]+p.PadT+p.PadB-p.KernelH)/p.StrideH + 1
	ow := (in[2]+p.PadL+p.PadR-p.KernelW)/p.StrideW + 1
	if oh <= 0 || ow <= 0 {
		return fmt.Errorf("non-positive output %dx%d for input %v", oh, ow, in)
	}
	g.setShape(n.Outputs[0], tensor.Shape{in[0], oh, ow, f})
	return nil
}

func (g *Graph) inferGemm(n *Node) error {
	in, err := g.shapeOf(n.Inputs[0])
	if err != nil {
		return err
	}
	w, err := g.shapeOf(n.Inputs[1])
	if err != nil {
		return err
	}
	if len(in) != 2 || len(w) != 2 {
		return fmt.Errorf("want 2-D operands, got %v x %v", in, w)
	}
	if in[1] != w[0] {
		return fmt.Errorf("inner dims mismatch: %v x %v", in, w)
	}
	if len(n.Inputs) > 2 {
		b, err := g.shapeOf(n.Inputs[2])
		if err != nil {
			return err
		}
		if len(b) != 1 || b[0] != w[1] {
			return fmt.Errorf("bias shape %v mismatches N=%d", b, w[1])
		}
	}
	g.setShape(n.Outputs[0], tensor.Shape{in[0], w[1]})
	return nil
}

func (g *Graph) inferMatMul(n *Node) error {
	a, err := g.shapeOf(n.Inputs[0])
	if err != nil {
		return err
	}
	b, err := g.shapeOf(n.Inputs[1])
	if err != nil {
		return err
	}
	switch {
	case len(a) == 2 && len(b) == 2:
		if a[1] != b[0] {
			return fmt.Errorf("inner dims mismatch: %v x %v", a, b)
		}
		g.setShape(n.Outputs[0], tensor.Shape{a[0], b[1]})
	case len(a) == 3 && len(b) == 3:
		if a[0] != b[0] || a[2] != b[1] {
			return fmt.Errorf("batched dims mismatch: %v x %v", a, b)
		}
		g.setShape(n.Outputs[0], tensor.Shape{a[0], a[1], b[2]})
	default:
		return fmt.Errorf("unsupported ranks: %v x %v", a, b)
	}
	return nil
}

func (g *Graph) inferBroadcast(n *Node) error {
	a, err := g.shapeOf(n.Inputs[0])
	if err != nil {
		return err
	}
	b, err := g.shapeOf(n.Inputs[1])
	if err != nil {
		return err
	}
	if a.Equal(b) {
		g.setShape(n.Outputs[0], a)
		return nil
	}
	// Broadcast [1,1,1,C] against [1,H,W,C] (squeeze-excite scaling).
	if len(a) == 4 && len(b) == 4 && a[0] == b[0] && a[3] == b[3] {
		if b[1] == 1 && b[2] == 1 {
			g.setShape(n.Outputs[0], a)
			return nil
		}
		if a[1] == 1 && a[2] == 1 {
			g.setShape(n.Outputs[0], b)
			return nil
		}
	}
	return fmt.Errorf("cannot broadcast %v with %v", a, b)
}

func (g *Graph) inferPool(n *Node) error {
	in, err := g.shapeOf(n.Inputs[0])
	if err != nil {
		return err
	}
	if len(in) != 4 {
		return fmt.Errorf("want NHWC input, got %v", in)
	}
	p := n.Conv
	if p.KernelH < 1 || p.KernelW < 1 || p.StrideH < 1 || p.StrideW < 1 {
		return fmt.Errorf("non-positive kernel %dx%d or strides %dx%d", p.KernelH, p.KernelW, p.StrideH, p.StrideW)
	}
	oh := (in[1]+p.PadT+p.PadB-p.KernelH)/p.StrideH + 1
	ow := (in[2]+p.PadL+p.PadR-p.KernelW)/p.StrideW + 1
	if oh <= 0 || ow <= 0 {
		return fmt.Errorf("non-positive output %dx%d", oh, ow)
	}
	g.setShape(n.Outputs[0], tensor.Shape{in[0], oh, ow, in[3]})
	return nil
}

func (g *Graph) inferConcat(n *Node) error {
	axis := n.Axis
	// The output shape is built in a stack buffer; error messages print
	// copies of it so it never escapes.
	var buf [4]int
	var out tensor.Shape
	for i, in := range n.Inputs {
		s, err := g.shapeOf(in)
		if err != nil {
			return err
		}
		if i == 0 {
			if axis < 0 || axis >= len(s) {
				return fmt.Errorf("axis %d out of range for %v", axis, s)
			}
			out = append(buf[:0], s...)
			continue
		}
		if len(s) != len(out) {
			return fmt.Errorf("rank mismatch %v vs %v", s, out.Clone())
		}
		for d := range s {
			if d == axis {
				continue
			}
			if s[d] != out[d] {
				return fmt.Errorf("dim %d mismatch %v vs %v", d, s, out.Clone())
			}
		}
		out[axis] += s[axis]
	}
	if len(out) == 0 {
		return fmt.Errorf("concat has no inputs")
	}
	if out[axis] <= 0 {
		return fmt.Errorf("non-positive concatenated dim %d", out[axis])
	}
	g.setShape(n.Outputs[0], out)
	return nil
}

func (g *Graph) inferSlice(n *Node) error {
	in, err := g.shapeOf(n.Inputs[0])
	if err != nil {
		return err
	}
	axis, start, end := n.Axis, n.Start, n.End
	if axis < 0 || axis >= len(in) {
		return fmt.Errorf("axis %d out of range for %v", axis, in)
	}
	if end < 0 || end > in[axis] {
		end = in[axis]
	}
	if start < 0 || start >= end {
		return fmt.Errorf("slice [%d,%d) invalid for dim %d", start, end, in[axis])
	}
	var buf [4]int
	out := append(tensor.Shape(buf[:0]), in...)
	out[axis] = end - start
	g.setShape(n.Outputs[0], out)
	return nil
}

func (g *Graph) inferPad(n *Node) error {
	in, err := g.shapeOf(n.Inputs[0])
	if err != nil {
		return err
	}
	if len(in) != 4 {
		return fmt.Errorf("want NHWC input, got %v", in)
	}
	p := n.Conv
	if p.PadT < 0 || p.PadL < 0 || p.PadB < 0 || p.PadR < 0 {
		return fmt.Errorf("negative pad in [%d %d %d %d]", p.PadT, p.PadL, p.PadB, p.PadR)
	}
	out := tensor.Shape{in[0], in[1] + p.PadT + p.PadB, in[2] + p.PadL + p.PadR, in[3]}
	if !out.Valid() {
		return fmt.Errorf("non-positive padded shape %v", out)
	}
	g.setShape(n.Outputs[0], out)
	return nil
}

// Validate performs structural checks: unique node names, known operators
// with their minimum arity, non-empty tensor references, declared graph
// inputs and outputs, positive declared shape dimensions, resolvable
// topology, and successful shape inference on a copy of the tensor table.
// The verify package mirrors these checks with structured per-rule
// diagnostics; Validate is the fail-fast form loaders and builders use.
func (g *Graph) Validate() error {
	seen := map[string]bool{}
	for _, n := range g.Nodes {
		if n.Name == "" {
			return fmt.Errorf("graph: unnamed node (%s)", n.Op)
		}
		if seen[n.Name] {
			return fmt.Errorf("graph: duplicate node name %q", n.Name)
		}
		seen[n.Name] = true
		if len(n.Outputs) == 0 {
			return fmt.Errorf("graph: node %q has no outputs", n.Name)
		}
		min, known := MinInputs(n.Op)
		if !known {
			return fmt.Errorf("graph: node %q has unknown op %q", n.Name, n.Op)
		}
		if len(n.Inputs) < min {
			return fmt.Errorf("graph: %s %q has %d inputs, needs >= %d", n.Op, n.Name, len(n.Inputs), min)
		}
		for _, t := range n.Inputs {
			if t == "" {
				return fmt.Errorf("graph: node %q has an empty input tensor name", n.Name)
			}
		}
		for _, t := range n.Outputs {
			if t == "" {
				return fmt.Errorf("graph: node %q has an empty output tensor name", n.Name)
			}
		}
	}
	for _, in := range g.Inputs {
		if _, ok := g.Tensors[in]; !ok {
			return fmt.Errorf("graph: input %q undeclared", in)
		}
	}
	for _, out := range g.Outputs {
		if _, ok := g.Tensors[out]; !ok {
			return fmt.Errorf("graph: output %q undeclared", out)
		}
	}
	for _, name := range g.TensorNames() {
		ti := g.Tensors[name]
		if ti.Shape == nil {
			continue
		}
		for _, d := range ti.Shape {
			if d <= 0 {
				return fmt.Errorf("graph: tensor %q has non-positive dim in shape %v", name, ti.Shape)
			}
		}
	}
	_, err := g.CloneTensors().Index().InferShapes()
	return err
}
