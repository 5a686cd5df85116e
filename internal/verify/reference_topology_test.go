package verify

import (
	"fmt"

	"pimflow/internal/graph"
)

// ReferenceCheckTopology is the map-based walk checkTopology ran before
// it took its adjacency from graph.Index, kept as a test-only reference:
// its own producer map, in-degrees and Kahn queue. The differential tests
// require checkTopology to return exactly the same diagnostics.
func ReferenceCheckTopology(g *graph.Graph) []Diagnostic {
	var diags []Diagnostic
	producerOf := map[string]*graph.Node{}
	for _, n := range g.Nodes {
		for _, out := range n.Outputs {
			if p, dup := producerOf[out]; dup {
				diags = append(diags, graphDiag(RuleGraphProducerDup, n.Name, out,
					fmt.Sprintf("also produced by %q", p.Name)))
				continue
			}
			producerOf[out] = n
		}
	}
	indeg := map[*graph.Node]int{}
	consumers := map[*graph.Node][]*graph.Node{}
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			p, ok := producerOf[in]
			if !ok {
				if _, declared := g.Tensors[in]; !declared {
					diags = append(diags, graphDiag(RuleGraphTensorUndecl, n.Name, in,
						"input tensor has no producer and no declaration"))
				}
				continue
			}
			indeg[n]++
			consumers[p] = append(consumers[p], n)
		}
	}
	done := 0
	queued := map[*graph.Node]bool{}
	var ready []*graph.Node
	for _, n := range g.Nodes {
		if indeg[n] == 0 {
			ready = append(ready, n)
			queued[n] = true
		}
	}
	for len(ready) > 0 {
		n := ready[0]
		ready = ready[1:]
		done++
		for _, c := range consumers[n] {
			indeg[c]--
			if indeg[c] == 0 && !queued[c] {
				ready = append(ready, c)
				queued[c] = true
			}
		}
	}
	if done < len(g.Nodes) {
		for _, n := range g.Nodes {
			if !queued[n] {
				diags = append(diags, graphDiag(RuleGraphCycle, n.Name, "", "node participates in a dependency cycle"))
			}
		}
	}
	return diags
}

// CheckTopology runs checkTopology over a fresh index of g, for the
// differential tests in package verify_test.
func CheckTopology(g *graph.Graph) []Diagnostic { return checkTopology(g.Index()) }
