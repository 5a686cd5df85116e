package graph

import "fmt"

// ReferenceTopoSort is the map-based Kahn walk TopoSort ran before the
// adjacency index, kept as a test-only reference: it rescans the node
// list until no node is ready, taking every ready node in insertion
// order. The differential tests require Index.TopoSort to return the same
// order, or the same error text, on every graph.
func ReferenceTopoSort(g *Graph) ([]*Node, error) {
	producerOf := map[string]*Node{}
	for _, n := range g.Nodes {
		for _, out := range n.Outputs {
			if p, dup := producerOf[out]; dup {
				return nil, fmt.Errorf("graph: tensor %q produced by both %q and %q", out, p.Name, n.Name)
			}
			producerOf[out] = n
		}
	}

	indeg := map[*Node]int{}
	consumers := map[*Node][]*Node{}
	for _, n := range g.Nodes {
		indeg[n] = 0
	}
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			p, ok := producerOf[in]
			if !ok {
				if _, declared := g.Tensors[in]; !declared {
					return nil, fmt.Errorf("graph: node %q reads undeclared tensor %q", n.Name, in)
				}
				continue // graph input or weight
			}
			indeg[n]++
			consumers[p] = append(consumers[p], n)
		}
	}

	out := make([]*Node, 0, len(g.Nodes))
	done := map[*Node]bool{}
	for len(out) < len(g.Nodes) {
		advanced := false
		for _, n := range g.Nodes {
			if done[n] || indeg[n] != 0 {
				continue
			}
			done[n] = true
			out = append(out, n)
			for _, c := range consumers[n] {
				indeg[c]--
			}
			advanced = true
		}
		if !advanced {
			return nil, fmt.Errorf("graph: cycle detected (%d of %d nodes sorted)", len(out), len(g.Nodes))
		}
	}
	return out, nil
}

// ReferenceProducer and ReferenceConsumers are the O(N) scans
// Graph.Producer and Graph.Consumers ran before the index replaced them.
func ReferenceProducer(g *Graph, name string) *Node {
	for _, n := range g.Nodes {
		for _, out := range n.Outputs {
			if out == name {
				return n
			}
		}
	}
	return nil
}

func ReferenceConsumers(g *Graph, name string) []*Node {
	var out []*Node
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			if in == name {
				out = append(out, n)
				break
			}
		}
	}
	return out
}
