package graph

import (
	"fmt"
	"strings"
)

// DOT renders the graph in Graphviz dot format. Nodes are colored by
// device assignment (GPU gray, PIM green) and elided data-movement nodes
// are dashed — useful for inspecting transformed graphs.
func (g *Graph) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=TB;\n  node [shape=box, fontsize=10];\n", g.Name)
	for _, in := range g.Inputs {
		fmt.Fprintf(&b, "  %q [shape=ellipse, label=%q];\n", "t:"+in, in)
	}
	for _, n := range g.Nodes {
		attrs := []string{fmt.Sprintf("label=%q", fmt.Sprintf("%s\\n%s", n.Name, n.Op))}
		switch {
		case n.Elided:
			attrs = append(attrs, "style=dashed")
		case n.Exec.Device == DevicePIM:
			attrs = append(attrs, `style=filled`, `fillcolor="#b7e1cd"`)
		default:
			attrs = append(attrs, `style=filled`, `fillcolor="#e8eaed"`)
		}
		fmt.Fprintf(&b, "  %q [%s];\n", "n:"+n.Name, strings.Join(attrs, ", "))
	}
	producer := map[string]string{}
	for _, n := range g.Nodes {
		for _, out := range n.Outputs {
			producer[out] = "n:" + n.Name
		}
	}
	for _, in := range g.Inputs {
		producer[in] = "t:" + in
	}
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			src, ok := producer[in]
			if !ok {
				continue // weights are omitted to keep the plot readable
			}
			fmt.Fprintf(&b, "  %q -> %q;\n", src, "n:"+n.Name)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
