package search

import (
	"fmt"

	"pimflow/internal/graph"
	"pimflow/internal/transform"
	"pimflow/internal/verify"
)

// Apply builds the compiled graph of the plan: chosen pipeline
// candidates are rewritten by the pipelining pass, MD-DP nodes are split,
// full-offload nodes are annotated for PIM, and the memory optimizer
// elides the introduced data-movement nodes. It builds the graph in one
// walk over g, which stays read-only (concurrent compiles share it): each
// node that stays is copied, a rewrite's nodes take the place of the
// first node it replaces, and only the generated nodes are shape-inferred
// (the copies keep the shapes Run inferred). With plan.Options.Verify
// set, the graph-IR invariant checker runs before transformation, after
// each rewrite (on the same build over the rewrites made so far) and
// after elision, and aborts on the first violation, naming the pass that
// introduced it.
func Apply(g *graph.Graph, plan *Plan) (*graph.Graph, error) {
	verifyStep := func(out *graph.Graph, step string, args ...any) error {
		if !plan.Options.Verify {
			return nil
		}
		diags := verify.Graph(out)
		verify.Record(plan.Options.Metrics, diags)
		if err := verify.AsError(diags); err != nil {
			return fmt.Errorf("search: graph invariants violated %s: %w", fmt.Sprintf(step, args...), err)
		}
		return nil
	}
	a := newApplier(g)
	var step func(*rewrite) error
	if plan.Options.Verify {
		if err := verifyStep(a.build(), "before transformation"); err != nil {
			return nil, err
		}
		step = func(r *rewrite) error {
			out := a.build()
			if err := a.infer(out, true); err != nil {
				return err
			}
			if r.chain != nil {
				return verifyStep(out, "after pipelining %v", r.chain)
			}
			return verifyStep(out, "after MD-DP split of %q", r.node)
		}
	}
	if err := a.resolve(plan, step); err != nil {
		return nil, err
	}
	out := a.build()
	if err := a.infer(out, false); err != nil {
		return nil, err
	}
	transform.ElideDataMovement(out)
	if err := verifyStep(out, "after data-movement elision"); err != nil {
		return nil, err
	}
	return out, nil
}

// rewrite is one pipeline (chain) or MD-DP split (node): the nodes its
// pass generated and the weight records they add.
type rewrite struct {
	nodes   []*graph.Node
	weights []*graph.TensorInfo
	chain   []string
	node    string
}

func (r *rewrite) errorf(err error) error {
	if r.chain != nil {
		return fmt.Errorf("search: apply pipeline %v: %w", r.chain, err)
	}
	return fmt.Errorf("search: apply split %q: %w", r.node, err)
}

// applier resolves a plan's rewrites against the source graph src and
// builds the graph they make.
type applier struct {
	src *graph.Graph
	x   *graph.Index // of src
	// owner[i] is 0 when source node i is copied, r+1 when rewrite r's
	// nodes take its place, and -(r+1) when rewrite r drops it; hinted[i]
	// marks it for full PIM offload.
	owner    []int32
	hinted   []bool
	rewrites []rewrite
	// Sizes of a build: the source nodes' name-list entries, and the
	// source nodes, entries, generated nodes and records the rewrites
	// remove and add.
	names, removed, removedNames, generated, records int

	unshaped bool // a source tensor has no shape (see infer)
}

func newApplier(g *graph.Graph) *applier {
	a := &applier{src: g, x: g.Index(), owner: make([]int32, len(g.Nodes)), hinted: make([]bool, len(g.Nodes))}
	for _, n := range g.Nodes {
		a.names += len(n.Inputs) + len(n.Outputs)
	}
	return a
}

// resolve makes the plan's rewrites in the order Apply always has: the
// chosen pipelines in plan order, numbering their groups, then each
// decision's MD-DP split or full-PIM hint for a node outside every chosen
// pipeline. step, when not nil, runs after each rewrite.
func (a *applier) resolve(plan *Plan, step func(*rewrite) error) error {
	count := 0
	for _, pd := range plan.Pipelines {
		if pd.Chosen {
			count++
		}
	}
	for _, d := range plan.Decisions {
		if d.PIMCandidate && d.GPURatio > 0 && d.GPURatio < 1 {
			count++
		}
	}
	a.rewrites = make([]rewrite, 0, count)
	pipelined := map[string]bool{}
	groupID := 0
	for _, pd := range plan.Pipelines {
		if !pd.Chosen {
			continue
		}
		for _, n := range pd.Candidate.Nodes {
			if pipelined[n] {
				return fmt.Errorf("search: apply pipeline %v: node %q is in an earlier pipeline", pd.Candidate.Nodes, n)
			}
			pipelined[n] = true
		}
		nodes, err := transform.PipelineStages(a.x, pd.Candidate.Nodes, pd.Stages, groupID)
		if err != nil {
			return fmt.Errorf("search: apply pipeline %v: %w", pd.Candidate.Nodes, err)
		}
		if err := a.add(rewrite{nodes: nodes, chain: pd.Candidate.Nodes}, step, pd.Candidate.Nodes...); err != nil {
			return err
		}
		groupID++
	}
	for _, d := range plan.Decisions {
		if !d.PIMCandidate || pipelined[d.Node] || d.GPURatio >= 1 {
			continue // full GPU keeps the default annotation
		}
		pos := a.x.Pos(d.Node)
		if pos < 0 {
			return fmt.Errorf("search: node %q vanished", d.Node)
		}
		if d.GPURatio <= 0 {
			a.hinted[pos] = true // dropped with the node if a split owns it
			continue
		}
		nodes, weights, err := transform.MDDPParts(a.src, a.x.At(pos), d.GPURatio)
		if err != nil {
			return fmt.Errorf("search: apply split %q: %w", d.Node, err)
		}
		if a.owner[pos] != 0 {
			// Splicing a second split found the node gone.
			return fmt.Errorf("search: apply split %q: graph: node %q not found", d.Node, d.Node)
		}
		if err := a.add(rewrite{nodes: nodes, weights: weights, node: d.Node}, step, d.Node); err != nil {
			return err
		}
	}
	return nil
}

// add appends r, which replaces the named source nodes (resolved and
// unowned): its nodes take the first one's place and drop the rest. It
// then runs step on r.
func (a *applier) add(r rewrite, step func(*rewrite) error, replaced ...string) error {
	id := int32(len(a.rewrites) + 1)
	for _, name := range replaced {
		pos := a.x.Pos(name)
		a.owner[pos] = id
		id = -int32(len(a.rewrites) + 1)
		a.removed++
		a.removedNames += len(a.src.Nodes[pos].Inputs) + len(a.src.Nodes[pos].Outputs)
	}
	a.generated += len(r.nodes)
	a.records += len(r.weights)
	for _, n := range r.nodes {
		a.records += len(n.Outputs)
	}
	a.rewrites = append(a.rewrites, r)
	if step == nil {
		return nil
	}
	return step(&a.rewrites[len(a.rewrites)-1])
}

// build makes the graph of the rewrites and hints resolved so far. The
// source nodes that stay are copied by value into one block and their
// name lists into one arena, as Graph.Clone copies them, and each
// rewrite's nodes go where its first replaced node stood. Every source
// tensor record is copied, sharing its shape slice and weight data (shape
// inference replaces a shape slice, never writes through it); then the
// rewrites add their weights and a record for each output not recorded.
func (a *applier) build() *graph.Graph {
	src := a.src
	out := &graph.Graph{
		Name:    src.Name,
		Inputs:  append([]string(nil), src.Inputs...),
		Outputs: append([]string(nil), src.Outputs...),
		Nodes:   make([]*graph.Node, 0, len(src.Nodes)-a.removed+a.generated),
		Tensors: make(map[string]*graph.TensorInfo, len(src.Tensors)+a.records),
	}
	recs := make([]graph.TensorInfo, 0, len(src.Tensors)+a.records)
	for name, ti := range src.Tensors {
		a.unshaped = a.unshaped || !ti.Shape.Valid()
		recs = append(recs, *ti)
		out.Tensors[name] = &recs[len(recs)-1]
	}
	for i := range a.rewrites {
		for _, w := range a.rewrites[i].weights {
			out.Tensors[w.Name] = w
		}
		for _, n := range a.rewrites[i].nodes {
			for _, o := range n.Outputs {
				if _, ok := out.Tensors[o]; !ok {
					recs = append(recs, graph.TensorInfo{Name: o})
					out.Tensors[o] = &recs[len(recs)-1]
				}
			}
		}
	}
	nodes := make([]graph.Node, len(src.Nodes)-a.removed)
	strs := make([]string, 0, a.names-a.removedNames)
	list := func(ss []string) []string {
		if len(ss) == 0 {
			return nil
		}
		k := len(strs)
		strs = append(strs, ss...)
		return strs[k:len(strs):len(strs)]
	}
	for pos, n := range src.Nodes {
		if id := a.owner[pos]; id != 0 {
			if id > 0 {
				out.Nodes = append(out.Nodes, a.rewrites[id-1].nodes...)
			}
			continue
		}
		c := &nodes[0]
		nodes = nodes[1:]
		*c = *n
		c.Inputs, c.Outputs = list(n.Inputs), list(n.Outputs)
		if a.hinted[pos] {
			c.Exec = graph.ExecHint{Mode: graph.ModeSerial, Device: graph.DevicePIM}
		}
		out.Nodes = append(out.Nodes, c)
	}
	return out
}

// infer shapes the generated nodes of out, rewrite by rewrite in the
// order they were generated: each reads only its chain's input, weights
// and earlier nodes of its rewrite. A rewrite's last node re-creates the
// replaced output, which copied nodes read at the source's shape, so
// another shape is an error naming the rewrite. An inference error reads
// as whole-graph inference gives it, wrapped with its rewrite when wrap is
// set. A source with unshaped tensors (one no search ran on) is inferred
// whole instead.
func (a *applier) infer(out *graph.Graph, wrap bool) error {
	if a.unshaped {
		err := out.InferShapes()
		if err != nil && wrap {
			err = a.rewrites[len(a.rewrites)-1].errorf(err)
		}
		return err
	}
	for i := range a.rewrites {
		r := &a.rewrites[i]
		if err := out.InferNodes(r.nodes); err != nil {
			if wrap {
				err = r.errorf(err)
			}
			return err
		}
		o := r.nodes[len(r.nodes)-1].Outputs[0]
		if got, want := out.Tensors[o].Shape, a.src.Tensors[o].Shape; !got.Equal(want) {
			return r.errorf(fmt.Errorf("output %q re-created at shape %v, the source's is %v", o, got, want))
		}
	}
	return nil
}
