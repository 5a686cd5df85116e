package graph

// TopoSort returns the nodes in a dependency-respecting order: a node
// appears after every producer of its inputs. Insertion order is used as
// the tiebreak, so already-sorted graphs come back unchanged. An error is
// returned for cyclic graphs or inputs with no producer and no tensor
// declaration. See Index.Order.
func (g *Graph) TopoSort() ([]*Node, error) { return g.Index().TopoSort() }

// IndependentNodeFraction returns the fraction of nodes that have at least
// one other node with no data-flow dependency path between them, used by
// the preliminary analysis (paper §3, observation 1).
func (g *Graph) IndependentNodeFraction() (float64, error) {
	x := g.Index()
	order, err := x.Order()
	if err != nil {
		return 0, err
	}
	n := len(order)
	if n == 0 {
		return 0, nil
	}
	rank := make([]int, n)
	for i, p := range order {
		rank[p] = i
	}
	// reach[i*n+j] = true if order[i] is an ancestor of order[j].
	reach := make([]bool, n*n)
	for j, p := range order {
		for _, in := range x.At(p).Inputs {
			if q := x.ProducerPos(in); q >= 0 {
				i := rank[q]
				reach[i*n+j] = true
				for k := 0; k < n; k++ {
					if reach[k*n+i] {
						reach[k*n+j] = true
					}
				}
			}
		}
	}
	independent := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && !reach[i*n+j] && !reach[j*n+i] {
				independent++
				break
			}
		}
	}
	return float64(independent) / float64(n), nil
}
