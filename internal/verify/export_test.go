package verify

import "pimflow/internal/graph"

// Checks selects optional graph invariants beyond the always-on set.
type Checks struct {
	// RequireLive enforces GR-DEAD: every node's output is a graph output
	// or consumed by another node. This is the post-DCE invariant; graphs
	// mid-transformation legitimately carry dead branches, so no
	// production gate enables it.
	RequireLive bool
}

// GraphWith is Graph with optional checks enabled.
func GraphWith(g *graph.Graph, c Checks) []Diagnostic {
	diags, x := checkInvariants(g)
	if x != nil && c.RequireLive {
		diags = append(diags, checkLiveness(g, x)...)
	}
	return diags
}

// checkLiveness reports nodes DCE should have removed: no output is a
// graph output or consumed by another node.
func checkLiveness(g *graph.Graph, x *graph.Index) []Diagnostic {
	outputs := map[string]bool{}
	for _, o := range g.Outputs {
		outputs[o] = true
	}
	var diags []Diagnostic
	for _, n := range g.Nodes {
		live := false
		for _, out := range n.Outputs {
			if outputs[out] || len(x.Consumers(out)) > 0 {
				live = true
				break
			}
		}
		if !live {
			diags = append(diags, graphDiag(RuleGraphDead, n.Name, "",
				"no output is a graph output or consumed by another node"))
		}
	}
	return diags
}
