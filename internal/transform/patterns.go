package transform

import "pimflow/internal/graph"

// PatternType identifies the pipelined subgraph patterns of Fig 11.
type PatternType int

const (
	// Pattern1x1DW is a pointwise conv followed by a depthwise conv
	// (Type 1, the pattern the paper finds profitable).
	Pattern1x1DW PatternType = iota + 1
	// PatternDW1x1 is a depthwise conv followed by a pointwise conv.
	PatternDW1x1
	// Pattern1x1DW1x1 is the full inverted-bottleneck sandwich.
	Pattern1x1DW1x1
)

func (p PatternType) String() string {
	switch p {
	case Pattern1x1DW:
		return "1x1-DW"
	case PatternDW1x1:
		return "DW-1x1"
	case Pattern1x1DW1x1:
		return "1x1-DW-1x1"
	default:
		return "unknown"
	}
}

// Candidate is one pipelining candidate subgraph: the chain of node names
// (convolutions plus interleaved activations) and its pattern type.
type Candidate struct {
	Pattern PatternType
	Nodes   []string
}

// convKind classifies a node for pattern matching.
type convKind int

const (
	kindOther convKind = iota
	kindPointwise
	kindDepthwise
)

func kindOf(g *graph.Graph, n *graph.Node) convKind {
	if n.Op != graph.OpConv {
		return kindOther
	}
	if g.IsDepthwise(n) {
		return kindDepthwise
	}
	if p := n.Conv; p.KernelH == 1 && p.KernelW == 1 && p.Group == 1 {
		return kindPointwise
	}
	return kindOther
}

// nextInChain follows the single-consumer chain from node n's output
// through elementwise ops, returning the chain of activation names plus
// the next conv node (or nil).
func nextInChain(x *graph.Index, n *graph.Node) (acts []string, next *graph.Node) {
	cur := n
	for {
		cs := x.Consumers(cur.Outputs[0])
		if len(cs) != 1 {
			return nil, nil
		}
		c := cs[0]
		if c.Op == graph.OpConv {
			return acts, c
		}
		if !elementwiseOps[c.Op] {
			return nil, nil
		}
		acts = append(acts, c.Name)
		cur = c
	}
}

// FindPipelineCandidates scans the graph for the three pipelining
// patterns (paper §4.2.2): sequences of 1x1 and DW convolutions connected
// through single-consumer activation chains. Longer patterns are preferred
// at each anchor; overlapping candidates anchored at different nodes are
// all returned (the search evaluates them and the DP picks a disjoint
// subset). x indexes the graph to scan.
func FindPipelineCandidates(x *graph.Index) []Candidate {
	g := x.Graph()
	var out []Candidate
	for i := 0; i < x.Len(); i++ {
		n := x.At(i)
		k1 := kindOf(g, n)
		if k1 != kindPointwise && k1 != kindDepthwise {
			continue
		}
		acts1, n2 := nextInChain(x, n)
		if n2 == nil {
			continue
		}
		k2 := kindOf(g, n2)
		switch {
		case k1 == kindPointwise && k2 == kindDepthwise:
			chain := append(append([]string{n.Name}, acts1...), n2.Name)
			// Try to extend to 1x1-DW-1x1.
			acts2, n3 := nextInChain(x, n2)
			if n3 != nil && kindOf(g, n3) == kindPointwise {
				full := append(append(append([]string(nil), chain...), acts2...), n3.Name)
				out = append(out, Candidate{Pattern: Pattern1x1DW1x1, Nodes: full})
			}
			out = append(out, Candidate{Pattern: Pattern1x1DW, Nodes: chain})
		case k1 == kindDepthwise && k2 == kindPointwise:
			chain := append(append([]string{n.Name}, acts1...), n2.Name)
			out = append(out, Candidate{Pattern: PatternDW1x1, Nodes: chain})
		}
	}
	return out
}
