package graph

import (
	"encoding/json"
	"fmt"
	"io"

	"pimflow/internal/tensor"
)

// jsonGraph is the on-disk representation: an ONNX-like JSON document.
// Weight initializer data is stored inline as float32 slices; light
// (shape-only) weights store only their shapes.
type jsonGraph struct {
	Name    string       `json:"name"`
	Inputs  []string     `json:"inputs"`
	Outputs []string     `json:"outputs"`
	Tensors []jsonTensor `json:"tensors"`
	Nodes   []jsonNode   `json:"nodes"`
}

type jsonTensor struct {
	Name  string    `json:"name"`
	Shape []int     `json:"shape,omitempty"`
	Param bool      `json:"param,omitempty"`
	Data  []float32 `json:"data,omitempty"`
}

type jsonNode struct {
	Name    string             `json:"name"`
	Op      string             `json:"op"`
	Inputs  []string           `json:"inputs"`
	Outputs []string           `json:"outputs"`
	Ints    map[string][]int   `json:"ints,omitempty"`
	Floats  map[string]float64 `json:"floats,omitempty"`
	Strs    map[string]string  `json:"strs,omitempty"`
}

// WriteJSON serializes the graph (execution annotations are not
// persisted; they are an artifact of compilation, recomputed by the
// search).
func (g *Graph) WriteJSON(w io.Writer) error {
	jg := jsonGraph{Name: g.Name, Inputs: g.Inputs, Outputs: g.Outputs}
	for _, name := range g.TensorNames() {
		ti := g.Tensors[name]
		jt := jsonTensor{Name: ti.Name, Shape: ti.Shape, Param: ti.Param}
		if ti.Init != nil {
			jt.Data = ti.Init.Data
		}
		jg.Tensors = append(jg.Tensors, jt)
	}
	for _, n := range g.Nodes {
		jg.Nodes = append(jg.Nodes, jsonNode{
			Name: n.Name, Op: string(n.Op),
			Inputs: n.Inputs, Outputs: n.Outputs,
			Ints: n.Attrs.Ints, Floats: n.Attrs.Floats, Strs: n.Attrs.Strs,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(jg)
}

// ReadJSON deserializes a graph written by WriteJSON, validates it
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
		n := &Node{
			Name: jn.Name, Op: OpType(jn.Op),
			Inputs: jn.Inputs, Outputs: jn.Outputs,
			Attrs: Attrs{Ints: jn.Ints, Floats: jn.Floats, Strs: jn.Strs},
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
