package graph

import (
	"encoding/json"
	"io"
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

// jsonNode spells a node's typed fields as ONNX-style attribute maps
// (Node.AppendAttrs). No pass reads a string attribute, so Strs exists
// only for the reader in graph's tests (ReadJSON) to reject.
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
	var attrs []Attr
	for _, n := range g.Nodes {
		jn := jsonNode{Name: n.Name, Op: string(n.Op), Inputs: n.Inputs, Outputs: n.Outputs}
		attrs = n.AppendAttrs(attrs[:0])
		for _, a := range attrs {
			if a.Len == 0 {
				if jn.Floats == nil {
					jn.Floats = map[string]float64{}
				}
				jn.Floats[a.Name] = a.Float
				continue
			}
			if jn.Ints == nil {
				jn.Ints = map[string][]int{}
			}
			jn.Ints[a.Name] = append([]int(nil), a.Ints[:a.Len]...)
		}
		jg.Nodes = append(jg.Nodes, jn)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(jg)
}
