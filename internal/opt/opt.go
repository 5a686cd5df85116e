// Package opt provides a small exact solver for the execution-mode
// assignment problem the search's dynamic program answers (paper
// Algorithm 1, lines 23-29): given per-node mode timings and a set of
// pipelined subgraph candidates spanning contiguous node ranges, pick a
// mode per node — or a covering span — minimizing the summed profiled
// time of the whole network.
//
// The solver is deliberately NOT another dynamic program. It is a
// depth-first branch-and-bound over the assignment space with an
// admissible per-node relaxation bound, so it shares no code or
// recurrence structure with the search's DP; agreement between the two
// is therefore meaningful evidence that the DP (and the plan built from
// it) is optimal for the profiled times. The verify package's OP-*
// rules use it to cross-check compiled plans, and a property test
// checks the solver itself against brute-force enumeration on random
// instances.
//
// A dominance rule stops the DFS re-exploring prefixes: it returns from
// a node position when it has already entered that position with a
// prefix cost no dearer. This never changes the answer. Let O be the
// first optimum in DFS order, which the search returns without the
// rule, and suppose a prefix P of O is pruned at position i because an
// earlier path Q entered i with cost(Q) <= cost(P). Then Q followed by
// O's completion from i costs no more than O, so it is also optimal,
// and it comes first in DFS order because Q does — contradicting that O
// is the first optimum. Hence no prefix of O is pruned, and every
// complete assignment found before O is dearer than O, so the bound
// never prunes O either.
package opt

import (
	"fmt"
	"math"
)

// Mode is one way to execute a single node (e.g. "gpu", "pim", an
// MD-DP split), with its profiled time in GPU-domain cycles.
type Mode struct {
	Name string
	Time int64
}

// Node is one schedulable network node with at least one mode.
type Node struct {
	Name  string
	Modes []Mode
}

// Span is a pipelined-subgraph candidate covering the contiguous node
// range [Start, Start+Len) with one fused profiled time.
type Span struct {
	Name  string
	Start int
	Len   int
	Time  int64
}

// Problem is a full assignment instance.
type Problem struct {
	Nodes []Node
	Spans []Span
}

// Assignment is an exact optimum: the chosen mode index per node (-1
// for nodes covered by a chosen span) and the chosen span indices.
type Assignment struct {
	Total int64
	// ModeIdx[i] is the index into Nodes[i].Modes, or -1 when node i is
	// covered by a chosen span.
	ModeIdx []int
	// SpanIdx lists chosen spans by index into Problem.Spans, in
	// ascending Start order.
	SpanIdx []int
}

// Validate checks the instance is well-formed: every node has a mode,
// no time is negative, and every span covers a non-empty in-range node
// window.
func (p *Problem) Validate() error {
	for i, n := range p.Nodes {
		if len(n.Modes) == 0 {
			return fmt.Errorf("opt: node %d (%q) has no modes", i, n.Name)
		}
		for _, m := range n.Modes {
			if m.Time < 0 {
				return fmt.Errorf("opt: node %d (%q) mode %q has negative time %d", i, n.Name, m.Name, m.Time)
			}
		}
	}
	for si, s := range p.Spans {
		if s.Len < 1 || s.Start < 0 || s.Start+s.Len > len(p.Nodes) {
			return fmt.Errorf("opt: span %d (%q) range [%d,%d) outside %d nodes", si, s.Name, s.Start, s.Start+s.Len, len(p.Nodes))
		}
		if s.Time < 0 {
			return fmt.Errorf("opt: span %d (%q) has negative time %d", si, s.Name, s.Time)
		}
	}
	return nil
}

// bestMode returns the index of the cheapest mode (first on ties).
// Modes are uncoupled — no constraint ties one node's mode to
// another's — so an optimal assignment always uses each uncovered
// node's cheapest mode, and the solver only branches over coverage.
func bestMode(n Node) int {
	best := 0
	for i := 1; i < len(n.Modes); i++ {
		if n.Modes[i].Time < n.Modes[best].Time {
			best = i
		}
	}
	return best
}

// Solve returns the exact optimum by depth-first branch-and-bound over
// the node sequence. At each position the solver branches on "cheapest
// single mode" first, then each span starting there in input order;
// improvements are strict, so the returned assignment is the
// first-found optimum under that order — the same tie-breaking as the
// search's DP (single node preferred, then lowest span index).
//
// Two prunes keep the search small. The bound is an admissible per-node
// relaxation: node j on its own can never cost less than min(cheapest
// mode, min over covering spans of Time/Len rounded down), so the suffix
// sums of those floors bound any completion from below. The dominance
// rule records the cheapest prefix cost with which the search has
// entered each node position, and returns when a later path arrives
// there no cheaper: the completions of a position do not depend on how
// it was reached, so such a path can never strictly improve on the
// earlier one. Neither prune can discard the first-found optimum (see
// the package comment), so the tie-breaking is exactly that of the
// unpruned enumeration.
func Solve(p *Problem) (Assignment, error) {
	if err := p.Validate(); err != nil {
		return Assignment{}, err
	}
	n := len(p.Nodes)
	bestIdx := make([]int, n)
	single := make([]int64, n)
	for i, nd := range p.Nodes {
		bestIdx[i] = bestMode(nd)
		single[i] = nd.Modes[bestIdx[i]].Time
	}
	spansAt := make([][]int, n)
	for si, s := range p.Spans {
		spansAt[s.Start] = append(spansAt[s.Start], si)
	}
	// suffix[i] = Σ_{j≥i} floor-relaxed per-node cost.
	suffix := make([]int64, n+1)
	relax := make([]int64, n)
	for i := range relax {
		relax[i] = single[i]
	}
	for _, s := range p.Spans {
		per := s.Time / int64(s.Len)
		for j := s.Start; j < s.Start+s.Len; j++ {
			if per < relax[j] {
				relax[j] = per
			}
		}
	}
	for i := n - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] + relax[i]
	}

	best := int64(math.MaxInt64)
	var bestSpans []int
	stack := make([]int, 0, n) // chosen span indices along the current path
	// reached[i] is the cheapest prefix cost position i has been entered
	// with.
	reached := make([]int64, n+1)
	for i := range reached {
		reached[i] = math.MaxInt64
	}

	var dfs func(i int, acc int64)
	dfs = func(i int, acc int64) {
		if acc >= reached[i] || acc+suffix[i] >= best {
			return // cannot strictly improve; keeps the first-found optimum
		}
		reached[i] = acc
		if i == n {
			best = acc
			bestSpans = append(bestSpans[:0], stack...)
			return
		}
		dfs(i+1, acc+single[i])
		for _, si := range spansAt[i] {
			s := &p.Spans[si]
			stack = append(stack, si)
			dfs(i+s.Len, acc+s.Time)
			stack = stack[:len(stack)-1]
		}
	}
	dfs(0, 0)

	out := Assignment{Total: best, ModeIdx: make([]int, n), SpanIdx: bestSpans}
	for i := range out.ModeIdx {
		out.ModeIdx[i] = bestIdx[i]
	}
	for _, si := range bestSpans {
		s := p.Spans[si]
		for j := s.Start; j < s.Start+s.Len; j++ {
			out.ModeIdx[j] = -1
		}
	}
	return out, nil
}
