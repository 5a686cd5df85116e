package opt

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// solveReference is Solve without the dominance rule: the same DFS
// order, bound and strict-improvement tie-breaking, so its Assignment is
// the first-found optimum the dominance rule must preserve.
func solveReference(p *Problem) (Assignment, error) {
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
	stack := make([]int, 0, n)
	var dfs func(i int, acc int64)
	dfs = func(i int, acc int64) {
		if acc+suffix[i] >= best {
			return
		}
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
	copy(out.ModeIdx, bestIdx)
	for _, si := range bestSpans {
		s := p.Spans[si]
		for j := s.Start; j < s.Start+s.Len; j++ {
			out.ModeIdx[j] = -1
		}
	}
	return out, nil
}

// bruteForce minimizes by enumerating every subset of pairwise-disjoint
// spans — a different search organization from Solve's DFS, so the two
// agreeing on random instances is a real cross-check.
func bruteForce(p *Problem) int64 {
	n := len(p.Nodes)
	cheapest := make([]int64, n)
	for i, nd := range p.Nodes {
		cheapest[i] = nd.Modes[0].Time
		for _, m := range nd.Modes[1:] {
			if m.Time < cheapest[i] {
				cheapest[i] = m.Time
			}
		}
	}
	best := int64(0)
	for _, c := range cheapest {
		best += c
	}
	for mask := 1; mask < 1<<len(p.Spans); mask++ {
		covered := make([]bool, n)
		var total int64
		ok := true
		for si, s := range p.Spans {
			if mask&(1<<si) == 0 {
				continue
			}
			for j := s.Start; j < s.Start+s.Len; j++ {
				if covered[j] {
					ok = false
				}
				covered[j] = true
			}
			total += s.Time
		}
		if !ok {
			continue
		}
		for i, c := range covered {
			if !c {
				total += cheapest[i]
			}
		}
		if total < best {
			best = total
		}
	}
	return best
}

// checkAssignment re-derives the assignment's total from its choices.
func checkAssignment(t *testing.T, p *Problem, a Assignment) {
	t.Helper()
	covered := make([]bool, len(p.Nodes))
	var total int64
	for _, si := range a.SpanIdx {
		s := p.Spans[si]
		total += s.Time
		for j := s.Start; j < s.Start+s.Len; j++ {
			if covered[j] {
				t.Fatalf("span %d overlaps prior chosen span at node %d", si, j)
			}
			covered[j] = true
		}
	}
	for i, mi := range a.ModeIdx {
		if covered[i] {
			if mi != -1 {
				t.Fatalf("covered node %d has mode index %d, want -1", i, mi)
			}
			continue
		}
		if mi < 0 || mi >= len(p.Nodes[i].Modes) {
			t.Fatalf("node %d mode index %d out of range", i, mi)
		}
		total += p.Nodes[i].Modes[mi].Time
	}
	if total != a.Total {
		t.Fatalf("assignment total %d does not re-derive: choices sum to %d", a.Total, total)
	}
}

// TestSolveMatchesBruteForce is the solver's property test: on random
// small instances the branch-and-bound optimum equals the brute-force
// optimum and the returned assignment re-derives its own total.
func TestSolveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(10)
		p := &Problem{}
		for i := 0; i < n; i++ {
			nd := Node{Name: string(rune('a' + i))}
			for m := 0; m <= rng.Intn(3); m++ {
				nd.Modes = append(nd.Modes, Mode{Name: "m", Time: int64(rng.Intn(100))})
			}
			p.Nodes = append(p.Nodes, nd)
		}
		for s := 0; s < rng.Intn(7); s++ {
			start := rng.Intn(n)
			maxLen := n - start
			p.Spans = append(p.Spans, Span{
				Name: "s", Start: start, Len: 1 + rng.Intn(maxLen),
				Time: int64(rng.Intn(250)),
			})
		}
		a, err := Solve(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkAssignment(t, p, a)
		if want := bruteForce(p); a.Total != want {
			t.Fatalf("trial %d: Solve %d, brute force %d (instance %+v)", trial, a.Total, want, p)
		}
	}
}

// TestSolveTieBreak pins the DP-compatible tie policy: a span exactly
// matching the single-node sum is not chosen (strict improvement only),
// and of two equal spans the lower index wins.
func TestSolveTieBreak(t *testing.T) {
	p := &Problem{
		Nodes: []Node{
			{Name: "a", Modes: []Mode{{Name: "gpu", Time: 10}}},
			{Name: "b", Modes: []Mode{{Name: "gpu", Time: 10}}},
		},
		Spans: []Span{{Name: "tie", Start: 0, Len: 2, Time: 20}},
	}
	a, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.SpanIdx) != 0 || a.Total != 20 {
		t.Fatalf("tie must prefer single nodes: got spans %v total %d", a.SpanIdx, a.Total)
	}

	p.Spans = []Span{
		{Name: "first", Start: 0, Len: 2, Time: 15},
		{Name: "second", Start: 0, Len: 2, Time: 15},
	}
	a, err = Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.SpanIdx) != 1 || a.SpanIdx[0] != 0 {
		t.Fatalf("equal spans must keep the first: got %v", a.SpanIdx)
	}
}

// TestSolveMatchesReference is the dominance rule's differential test:
// on seeded random instances with small integer times, where equal-cost
// optima are common, Solve returns exactly the reference's Assignment —
// the same total, mode indices, chosen spans and tie-breaks.
func TestSolveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 20000; trial++ {
		n := 1 + rng.Intn(16)
		p := &Problem{}
		for i := 0; i < n; i++ {
			nd := Node{Name: "n"}
			for m := 0; m <= rng.Intn(3); m++ {
				nd.Modes = append(nd.Modes, Mode{Name: "m", Time: int64(rng.Intn(6))})
			}
			p.Nodes = append(p.Nodes, nd)
		}
		for s := 0; s < rng.Intn(3*n); s++ {
			start := rng.Intn(n)
			p.Spans = append(p.Spans, Span{
				Name: "s", Start: start, Len: 1 + rng.Intn(min(4, n-start)),
				Time: int64(rng.Intn(14)),
			})
		}
		want, err := solveReference(p)
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		got, err := Solve(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Solve %+v, reference %+v (instance %+v)", trial, got, want, p)
		}
	}
}

func TestValidateRejectsBadInstances(t *testing.T) {
	cases := []*Problem{
		{Nodes: []Node{{Name: "a"}}},
		{Nodes: []Node{{Name: "a", Modes: []Mode{{Time: -1}}}}},
		{Nodes: []Node{{Name: "a", Modes: []Mode{{Time: 1}}}}, Spans: []Span{{Start: 0, Len: 2, Time: 1}}},
		{Nodes: []Node{{Name: "a", Modes: []Mode{{Time: 1}}}}, Spans: []Span{{Start: 0, Len: 1, Time: -3}}},
	}
	for i, p := range cases {
		if _, err := Solve(p); err == nil {
			t.Fatalf("case %d: want validation error", i)
		}
	}
}

func TestSolveEmpty(t *testing.T) {
	a, err := Solve(&Problem{})
	if err != nil || a.Total != 0 {
		t.Fatalf("empty instance: %v %+v", err, a)
	}
}
