package transform

import "pimflow/internal/graph"

// EliminateDeadNodes removes nodes whose outputs are neither graph outputs
// nor consumed by any other node, iterating to a fixpoint, and returns the
// number of removed nodes. Only tests call it: transform's own, and
// verify's, which check GR-DEAD on the graph it leaves.
func EliminateDeadNodes(g *graph.Graph) int {
	removed := 0
	for {
		outputs := map[string]bool{}
		for _, o := range g.Outputs {
			outputs[o] = true
		}
		consumed := map[string]bool{}
		for _, n := range g.Nodes {
			for _, in := range n.Inputs {
				consumed[in] = true
			}
		}
		var dead *graph.Node
		for _, n := range g.Nodes {
			live := false
			for _, out := range n.Outputs {
				if outputs[out] || consumed[out] {
					live = true
					break
				}
			}
			if !live {
				dead = n
				break
			}
		}
		if dead == nil {
			return removed
		}
		g.RemoveNode(dead.Name)
		removed++
	}
}
