package graph

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"pimflow/internal/tensor"
)

// Node is one operation in a model graph. Inputs and Outputs name tensors
// in the owning Graph. Nodes carry typed operator attributes, checked
// where a graph is made (the builder, ReadJSON, Validate), plus PIMFlow
// execution annotations written by the search and transformation phases.
type Node struct {
	Name    string
	Op      OpType
	Inputs  []string
	Outputs []string

	// Conv is the window of a Conv, MaxPool or AvgPool node and the pads
	// of a Pad node. Axis is a Concat's or Slice's axis; a Slice keeps
	// [Start, End) of it, a negative End reaching the end. Min and Max
	// bound a Clip (±Inf when open); Epsilon is a BatchNorm's (see Eps).
	Conv              ConvParams
	Axis, Start, End  int
	Min, Max, Epsilon float64
	// Elided marks a data-movement node the layout pass made free; MDDP
	// and Pipelined mark the parts the MD-DP and pipelining rewrites made.
	Elided, MDDP, Pipelined bool

	// Exec is the execution annotation chosen by the search phase; the
	// zero value means "GPU, heterogeneous-parallel".
	Exec ExecHint
}

// Device names an execution resource.
type Device int

const (
	// DeviceGPU executes the node on the GPU SMs.
	DeviceGPU Device = iota
	// DevicePIM executes the node on the PIM-enabled memory channels.
	DevicePIM
)

func (d Device) String() string {
	if d == DevicePIM {
		return "PIM"
	}
	return "GPU"
}

// ExecMode is the execution mode chosen for a node (paper §4.2.1).
type ExecMode int

const (
	// ModeSerial runs the whole node on Exec.Device (heterogeneous
	// parallelism; full offload when Device == PIM).
	ModeSerial ExecMode = iota
	// ModeMDDP splits the node across GPU and PIM (multi-device
	// data-parallel) with Exec.GPURatio of rows on GPU.
	ModeMDDP
	// ModePipeline marks a node as a stage of a pipelined subgraph.
	ModePipeline
)

func (m ExecMode) String() string {
	switch m {
	case ModeMDDP:
		return "md-dp"
	case ModePipeline:
		return "pipeline"
	default:
		return "serial"
	}
}

// ExecHint is the per-node execution annotation.
type ExecHint struct {
	Mode   ExecMode
	Device Device // for ModeSerial
	// GPURatio is the fraction of output rows computed on GPU in MD-DP
	// mode, in 10% steps per the paper (0.1 .. 0.9).
	GPURatio float64
	// Pipeline identifies the pipelined subgraph and stage for
	// ModePipeline nodes.
	Pipeline PipelineHint
}

// PipelineHint locates a node within a pipelined subgraph.
type PipelineHint struct {
	GroupID int // which pipelined subgraph
	Stage   int // stage index within the subgraph, 0-based
	Part    int // data chunk index, 0-based
	Parts   int // total data chunks (pipeline depth)
}

// Clone deep-copies the node.
func (n *Node) Clone() *Node {
	c := *n
	c.Inputs = append([]string(nil), n.Inputs...)
	c.Outputs = append([]string(nil), n.Outputs...)
	return &c
}

// TensorInfo describes a named tensor: its shape and, for weights, the
// initializer data. Activations have a nil Init. Param marks
// shape-only weights built in "light" mode for timing-only use, where
// materializing hundreds of megabytes of initializer data would be waste.
type TensorInfo struct {
	Name  string
	Shape tensor.Shape
	Init  *tensor.Tensor
	Param bool
}

// IsWeight reports whether the tensor is a model parameter (with or
// without materialized initializer data).
func (ti *TensorInfo) IsWeight() bool { return ti.Param || ti.Init != nil }

// Graph is a model computation graph. Nodes are stored in insertion order;
// use TopoSort for a dependency-respecting order.
type Graph struct {
	Name    string
	Inputs  []string
	Outputs []string
	Nodes   []*Node
	Tensors map[string]*TensorInfo
}

// New creates an empty graph.
func New(name string) *Graph {
	return &Graph{Name: name, Tensors: map[string]*TensorInfo{}}
}

// AddInput declares a graph input tensor with the given shape.
func (g *Graph) AddInput(name string, shape ...int) {
	g.Inputs = append(g.Inputs, name)
	g.Tensors[name] = &TensorInfo{Name: name, Shape: tensor.Shape(shape).Clone()}
}

// MarkOutput declares an existing tensor as a graph output.
func (g *Graph) MarkOutput(name string) {
	g.Outputs = append(g.Outputs, name)
}

// AddWeight declares a weight tensor with initializer data.
func (g *Graph) AddWeight(name string, t *tensor.Tensor) {
	g.Tensors[name] = &TensorInfo{Name: name, Shape: t.Shape.Clone(), Init: t, Param: true}
}

// AddParam declares a shape-only weight tensor (no initializer data),
// sufficient for compilation and timing but not functional execution.
func (g *Graph) AddParam(name string, shape ...int) {
	g.Tensors[name] = &TensorInfo{Name: name, Shape: tensor.Shape(shape).Clone(), Param: true}
}

// AddNode appends a node, implicitly declaring unseen output tensors.
func (g *Graph) AddNode(n *Node) {
	for _, out := range n.Outputs {
		if _, ok := g.Tensors[out]; !ok {
			g.Tensors[out] = &TensorInfo{Name: out}
		}
	}
	g.Nodes = append(g.Nodes, n)
}

// Node returns the node with the given name, or nil.
func (g *Graph) Node(name string) *Node {
	for _, n := range g.Nodes {
		if n.Name == name {
			return n
		}
	}
	return nil
}

// Clone deep-copies the graph. Weight initializer data is shared (weights
// are immutable), but TensorInfo records and nodes are copied. Records,
// shapes, nodes and tensor-name lists are each allocated in one block.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		Name:    g.Name,
		Inputs:  append([]string(nil), g.Inputs...),
		Outputs: append([]string(nil), g.Outputs...),
		Tensors: make(map[string]*TensorInfo, len(g.Tensors)),
	}
	dims := 0
	for _, ti := range g.Tensors {
		dims += len(ti.Shape)
	}
	recs := make([]TensorInfo, 0, len(g.Tensors))
	shapes := make(tensor.Shape, 0, dims)
	for name, ti := range g.Tensors {
		k := len(shapes)
		shapes = append(shapes, ti.Shape...)
		recs = append(recs, TensorInfo{Name: ti.Name, Shape: shapes[k:len(shapes):len(shapes)], Init: ti.Init, Param: ti.Param})
		c.Tensors[name] = &recs[len(recs)-1]
	}
	names := 0
	for _, n := range g.Nodes {
		names += len(n.Inputs) + len(n.Outputs)
	}
	nodes := make([]Node, len(g.Nodes))
	strs := make([]string, 0, names)
	list := func(ss []string) []string {
		if len(ss) == 0 {
			return nil
		}
		k := len(strs)
		strs = append(strs, ss...)
		return strs[k:len(strs):len(strs)]
	}
	c.Nodes = make([]*Node, len(g.Nodes))
	for i, n := range g.Nodes {
		nodes[i] = *n
		nodes[i].Inputs, nodes[i].Outputs = list(n.Inputs), list(n.Outputs)
		c.Nodes[i] = &nodes[i]
	}
	return c
}

// CloneTensors returns a graph that shares g's nodes, input and output
// lists, shape slices and weight data, but owns a copy of every tensor
// record. Shape inference over it leaves g untouched (it replaces shape
// slices rather than writing through them), which is all the verifier
// and Validate need from a scratch graph; its nodes must stay read-only.
func (g *Graph) CloneTensors() *Graph {
	c := &Graph{Name: g.Name, Inputs: g.Inputs, Outputs: g.Outputs, Nodes: g.Nodes,
		Tensors: make(map[string]*TensorInfo, len(g.Tensors))}
	recs := make([]TensorInfo, 0, len(g.Tensors))
	for name, ti := range g.Tensors {
		if ti == nil {
			c.Tensors[name] = nil
			continue
		}
		recs = append(recs, *ti)
		c.Tensors[name] = &recs[len(recs)-1]
	}
	return c
}

// RemoveNode deletes the node with the given name. Tensor records are kept
// (they may still be referenced).
func (g *Graph) RemoveNode(name string) bool {
	for i, n := range g.Nodes {
		if n.Name == name {
			g.Nodes = append(g.Nodes[:i], g.Nodes[i+1:]...)
			return true
		}
	}
	return false
}

// ReplaceNode substitutes the node named old with the given nodes, splicing
// them in at the same position.
//
// Only tests call it, graph's and, through transform.SplitMDDP and
// transform.PipelineChain, those of transform, runtime, search and verify.
func (g *Graph) ReplaceNode(old string, repl ...*Node) error {
	for i, n := range g.Nodes {
		if n.Name == old {
			for _, r := range repl {
				for _, out := range r.Outputs {
					if _, ok := g.Tensors[out]; !ok {
						g.Tensors[out] = &TensorInfo{Name: out}
					}
				}
			}
			g.Nodes = slices.Replace(g.Nodes, i, i+1, repl...)
			return nil
		}
	}
	return fmt.Errorf("graph: node %q not found", old)
}

// IsDepthwise reports whether a Conv node is depthwise: grouped with one
// input channel per group.
func (g *Graph) IsDepthwise(n *Node) bool {
	if n.Op != OpConv {
		return false
	}
	if n.Conv.Group == 1 {
		return false
	}
	in := g.Tensors[n.Inputs[0]]
	if in == nil || len(in.Shape) != 4 {
		return false
	}
	return n.Conv.Group == in.Shape[3]
}

// IsPIMCandidate reports whether a node can be offloaded to DRAM-PIM:
// Conv layers (except depthwise) and Gemm layers (paper §4.2.1).
func (g *Graph) IsPIMCandidate(n *Node) bool {
	switch n.Op {
	case OpGemm:
		return true
	case OpConv:
		return !g.IsDepthwise(n)
	default:
		return false
	}
}

// Summary returns a human-readable multi-line description of the graph.
func (g *Graph) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph %s: %d nodes, inputs %v, outputs %v\n", g.Name, len(g.Nodes), g.Inputs, g.Outputs)
	for _, n := range g.Nodes {
		fmt.Fprintf(&b, "  %-28s %-14s %v -> %v", n.Name, n.Op, n.Inputs, n.Outputs)
		if ti := g.Tensors[n.Outputs[0]]; ti != nil && ti.Shape != nil {
			fmt.Fprintf(&b, " %v", ti.Shape)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// WeightBytes returns the total size of all initializers in bytes, assuming
// 2-byte (fp16) storage as on the PIM device.
func (g *Graph) WeightBytes() int64 {
	var total int64
	for _, ti := range g.Tensors {
		if ti.IsWeight() {
			total += int64(ti.Shape.Elems()) * 2
		}
	}
	return total
}

// TensorNames returns all tensor names in sorted order (for deterministic
// iteration).
func (g *Graph) TensorNames() []string {
	names := make([]string, 0, len(g.Tensors))
	for n := range g.Tensors {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
