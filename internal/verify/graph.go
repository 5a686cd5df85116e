package verify

import (
	"cmp"
	"fmt"
	"slices"

	"pimflow/internal/graph"
)

// Graph checks the default invariant set: structural well-formedness,
// topology, shape consistency against re-inference, and — where execution
// annotations mark transformed regions — MD-DP and pipeline soundness.
// It returns all violations found, or nil for a clean graph.
func Graph(g *graph.Graph) []Diagnostic {
	diags, _ := checkInvariants(g)
	return diags
}

// checkInvariants runs Graph's checks. It also returns the index they
// shared, or nil when a structural or inference failure stopped them.
func checkInvariants(g *graph.Graph) ([]Diagnostic, *graph.Index) {
	var diags []Diagnostic

	// Every check takes its adjacency from one index. It indexes a scratch
	// graph that shares g's nodes and owns a copy of the tensor table, so
	// phase 2 can re-infer shapes without touching g.
	x := g.CloneTensors().Index()

	// Phase 1: structural rules that everything later depends on. A graph
	// failing these can make inference index out of range, so stop here.
	diags = append(diags, checkStructure(g)...)
	diags = append(diags, checkTopology(x)...)
	if len(diags) > 0 {
		return diags, nil
	}

	// Phase 2: re-infer shapes on the scratch table and compare. An
	// inference error poisons every downstream shape, so stop on it too.
	shapeDiags, inferOK := checkShapes(g, x)
	diags = append(diags, shapeDiags...)
	if !inferOK {
		return diags, nil
	}

	// Phase 3: transform soundness, gated on execution annotations so
	// untransformed graphs (including everything ReadJSON can produce —
	// annotations are never serialized) are exempt by construction.
	diags = append(diags, checkMDDP(g, x)...)
	diags = append(diags, checkPipeline(x)...)
	return diags, x
}

func checkStructure(g *graph.Graph) []Diagnostic {
	var diags []Diagnostic
	seen := make(map[string]bool, len(g.Nodes))
	for _, n := range g.Nodes {
		if n.Name == "" {
			diags = append(diags, graphDiag(RuleGraphName, "", "", fmt.Sprintf("unnamed %s node", n.Op)))
		} else if seen[n.Name] {
			diags = append(diags, graphDiag(RuleGraphNameDup, n.Name, "", "node name used more than once"))
		}
		seen[n.Name] = true
		min, known := graph.MinInputs(n.Op)
		if !known {
			diags = append(diags, graphDiag(RuleGraphOp, n.Name, "", fmt.Sprintf("unknown op %q", n.Op)))
		} else if len(n.Inputs) < min {
			diags = append(diags, graphDiag(RuleGraphArity, n.Name, "",
				fmt.Sprintf("%s has %d inputs, needs >= %d", n.Op, len(n.Inputs), min)))
		}
		if len(n.Outputs) == 0 {
			diags = append(diags, graphDiag(RuleGraphOutNone, n.Name, "", "node has no outputs"))
		}
		for _, t := range n.Inputs {
			if t == "" {
				diags = append(diags, graphDiag(RuleGraphTensorName, n.Name, "", "empty input tensor name"))
			}
		}
		for _, t := range n.Outputs {
			if t == "" {
				diags = append(diags, graphDiag(RuleGraphTensorName, n.Name, "", "empty output tensor name"))
			}
		}
	}
	for _, in := range g.Inputs {
		if _, ok := g.Tensors[in]; !ok {
			diags = append(diags, graphDiag(RuleGraphInputUndecl, "", in, "graph input has no tensor record"))
		}
	}
	for _, out := range g.Outputs {
		if _, ok := g.Tensors[out]; !ok {
			diags = append(diags, graphDiag(RuleGraphOutputUndecl, "", out, "graph output has no tensor record"))
		}
	}
	var bad []string
	for name, ti := range g.Tensors {
		if ti != nil && slices.ContainsFunc(ti.Shape, func(d int) bool { return d <= 0 }) {
			bad = append(bad, name)
		}
	}
	slices.Sort(bad)
	for _, name := range bad {
		diags = append(diags, graphDiag(RuleGraphShapeDim, "", name,
			fmt.Sprintf("declared shape %v has a non-positive dim", g.Tensors[name].Shape)))
	}
	return diags
}

// checkTopology reports the index's duplicate producers, undeclared
// inputs, and the nodes its topological walk cannot place — the defects
// graph.TopoSort fails on, each collected as a structured diagnostic
// instead of failing on the first.
func checkTopology(x *graph.Index) []Diagnostic {
	var diags []Diagnostic
	for _, d := range x.DupProducers() {
		diags = append(diags, graphDiag(RuleGraphProducerDup, d.Node.Name, d.Tensor,
			fmt.Sprintf("also produced by %q", d.First.Name)))
	}
	for _, u := range x.UndeclaredInputs() {
		diags = append(diags, graphDiag(RuleGraphTensorUndecl, u.Node.Name, u.Tensor,
			"input tensor has no producer and no declaration"))
	}
	for _, n := range x.Unsorted() {
		diags = append(diags, graphDiag(RuleGraphCycle, n.Name, "", "node participates in a dependency cycle"))
	}
	return diags
}

// checkShapes re-runs shape inference over the index's scratch tensor
// table and reports declared shapes of g that disagree with the inferred
// ones, in tensor-name order. The bool result reports whether inference
// itself succeeded.
func checkShapes(g *graph.Graph, x *graph.Index) ([]Diagnostic, bool) {
	if _, err := x.InferShapes(); err != nil {
		return []Diagnostic{graphDiag(RuleGraphInfer, "", "", err.Error())}, false
	}
	inferred := x.Graph().Tensors
	var bad []string
	for name, want := range g.Tensors {
		got := inferred[name]
		if want == nil || got == nil || !want.Shape.Valid() || !got.Shape.Valid() {
			continue
		}
		if !want.Shape.Equal(got.Shape) {
			bad = append(bad, name)
		}
	}
	slices.Sort(bad)
	var diags []Diagnostic
	for _, name := range bad {
		diags = append(diags, graphDiag(RuleGraphShapeMismatch, "", name,
			fmt.Sprintf("declared shape %v, inference gives %v", g.Tensors[name].Shape, inferred[name].Shape)))
	}
	return diags, true
}

// checkMDDP validates every MD-DP split: the two halves pair through one
// Concat (GR-MDDP-PAIR), and for convolutions the slice/pad arithmetic
// reconstructs exactly the original output height (GR-MDDP-COVER) — the
// rule that catches overlapping or gapped slice ranges, which a plain
// shape check cannot (halo rows legitimately overlap).
func checkMDDP(g *graph.Graph, x *graph.Index) []Diagnostic {
	var diags []Diagnostic
	pair := func(rule, node, msg string) {
		diags = append(diags, graphDiag(rule, node, "", msg))
	}
	halves := 0
	for _, n := range g.Nodes {
		if n.Exec.Mode == graph.ModeMDDP {
			halves++
		}
	}
	seenConcat := make(map[string]bool, halves/2)
	for _, n := range g.Nodes {
		if n.Exec.Mode != graph.ModeMDDP {
			continue
		}
		cs := x.Consumers(n.Outputs[0])
		if len(cs) != 1 || cs[0].Op != graph.OpConcat {
			pair(RuleGraphMDDPPair, n.Name, "MD-DP half must feed exactly one Concat")
			continue
		}
		c := cs[0]
		if seenConcat[c.Name] {
			continue // pair already checked via the other half
		}
		seenConcat[c.Name] = true
		if len(c.Inputs) != 2 {
			pair(RuleGraphMDDPPair, c.Name, fmt.Sprintf("MD-DP merge Concat has %d inputs, want 2", len(c.Inputs)))
			continue
		}
		if c.Axis != 1 {
			pair(RuleGraphMDDPPair, c.Name, fmt.Sprintf("MD-DP merge Concat axis %d, want 1", c.Axis))
			continue
		}
		var gpu, pim *graph.Node
		ok := true
		for _, in := range c.Inputs {
			p := x.Producer(in)
			if p == nil || p.Exec.Mode != graph.ModeMDDP {
				pair(RuleGraphMDDPPair, c.Name, fmt.Sprintf("Concat input %q is not an MD-DP half", in))
				ok = false
				break
			}
			switch p.Exec.Device {
			case graph.DeviceGPU:
				gpu = p
			case graph.DevicePIM:
				pim = p
			}
		}
		if !ok {
			continue
		}
		if gpu == nil || pim == nil {
			pair(RuleGraphMDDPPair, c.Name, "MD-DP halves must be one GPU and one PIM node")
			continue
		}
		if gpu.Op != pim.Op {
			pair(RuleGraphMDDPPair, c.Name, fmt.Sprintf("halves have different ops %s vs %s", gpu.Op, pim.Op))
			continue
		}
		if gpu.Exec.GPURatio != pim.Exec.GPURatio {
			pair(RuleGraphMDDPPair, c.Name, fmt.Sprintf("halves disagree on GPU ratio: %v vs %v",
				gpu.Exec.GPURatio, pim.Exec.GPURatio))
			continue
		}
		if gpu.Op == graph.OpConv {
			diags = append(diags, checkMDDPConvCover(g, x, c, gpu, pim)...)
		}
	}
	return diags
}

// checkMDDPConvCover reconstructs the original convolution from its two
// halves. Both halves slice the same source tensor; the GPU half keeps
// the original top padding and the PIM half the original bottom padding
// (transform.rowRange), so
//
//	(srcH + padT_gpu + padB_pim - kernelH)/strideH + 1
//
// must equal the sum of the halves' output heights. Overlapping slice
// ranges inflate the sum; gapped ranges shrink it; both trip the rule.
func checkMDDPConvCover(g *graph.Graph, x *graph.Index, c, gpu, pim *graph.Node) []Diagnostic {
	cover := func(node, msg string) []Diagnostic {
		return []Diagnostic{graphDiag(RuleGraphMDDPCover, node, "", msg)}
	}
	gp, pp := gpu.Conv, pim.Conv
	if gp.KernelH != pp.KernelH || gp.StrideH != pp.StrideH {
		return cover(c.Name, fmt.Sprintf("halves disagree on kernel/stride: %dx%d vs %dx%d",
			gp.KernelH, gp.StrideH, pp.KernelH, pp.StrideH))
	}
	gSlice := x.Producer(gpu.Inputs[0])
	pSlice := x.Producer(pim.Inputs[0])
	if gSlice == nil || gSlice.Op != graph.OpSlice || pSlice == nil || pSlice.Op != graph.OpSlice {
		return cover(c.Name, "MD-DP conv halves must read height Slices of the source")
	}
	if gSlice.Axis != 1 || pSlice.Axis != 1 {
		return cover(c.Name, "MD-DP conv slices must split the height axis")
	}
	src := gSlice.Inputs[0]
	if pSlice.Inputs[0] != src {
		return cover(c.Name, fmt.Sprintf("halves slice different sources %q and %q", src, pSlice.Inputs[0]))
	}
	srcTI := g.Tensors[src]
	gOut := g.Tensors[gpu.Outputs[0]]
	pOut := g.Tensors[pim.Outputs[0]]
	if srcTI == nil || len(srcTI.Shape) != 4 || gOut == nil || len(gOut.Shape) != 4 ||
		pOut == nil || len(pOut.Shape) != 4 {
		return cover(c.Name, "MD-DP conv tensors must be NHWC with known shapes")
	}
	srcH := srcTI.Shape[1]
	want := (srcH+gp.PadT+pp.PadB-gp.KernelH)/gp.StrideH + 1
	got := gOut.Shape[1] + pOut.Shape[1]
	if want != got {
		return cover(c.Name, fmt.Sprintf(
			"halves produce %d output rows, original conv over %d source rows produces %d", got, srcH, want))
	}
	return nil
}

// checkPipeline validates pipeline annotations (GR-PIPE-HINT), stage
// completeness (GR-PIPE-PARTS), and chunk dataflow order: chunk (s, p)
// may only consume chunks (s' < s, p' <= p) of the same group — the
// property that lets the runtime overlap chunk B of stage i with chunk A
// of stage i+1 (GR-PIPE-ORDER). Chunk provenance is propagated through
// the unannotated Slice/Concat glue nodes between stages. Diagnostics
// come out in a fixed order: hints in node order, missing chunks by
// (group, stage, part), order violations in topological order and, per
// node, by the consumed chunk's (stage, part).
func checkPipeline(x *graph.Index) []Diagnostic {
	var diags []Diagnostic

	var members []chunk // every validly annotated node's chunk
	groupParts := map[int]int{}
	for i := 0; i < x.Len(); i++ {
		n := x.At(i)
		if n.Exec.Mode != graph.ModePipeline {
			continue
		}
		h := n.Exec.Pipeline
		if h.Parts < 2 || h.Part < 0 || h.Part >= h.Parts || h.Stage < 0 {
			diags = append(diags, graphDiag(RuleGraphPipeHint, n.Name, "",
				fmt.Sprintf("invalid pipeline hint stage=%d part=%d parts=%d", h.Stage, h.Part, h.Parts)))
			continue
		}
		if prev, ok := groupParts[h.GroupID]; ok && prev != h.Parts {
			diags = append(diags, graphDiag(RuleGraphPipeHint, n.Name, "",
				fmt.Sprintf("group %d mixes chunk counts %d and %d", h.GroupID, prev, h.Parts)))
			continue
		}
		groupParts[h.GroupID] = h.Parts
		members = append(members, chunk{h.GroupID, h.Stage, h.Part})
	}
	if len(members) == 0 {
		return diags
	}

	// Stage completeness: walk each (group, stage) run of the sorted
	// chunks and report the parts it lacks.
	slices.SortFunc(members, chunk.cmp)
	members = slices.Compact(members)
	for i := 0; i < len(members); {
		gid, stage, parts := members[i].group, members[i].stage, groupParts[members[i].group]
		next := 0
		for ; i < len(members) && members[i].group == gid && members[i].stage == stage; i++ {
			for ; next < members[i].part; next++ {
				diags = append(diags, missingChunk(gid, stage, next, parts))
			}
			next = members[i].part + 1
		}
		for ; next < parts; next++ {
			diags = append(diags, missingChunk(gid, stage, next, parts))
		}
	}

	// Chunk-order dataflow: propagate each node's origin chunks (a sorted
	// set) in topological order. Pipeline nodes stamp their own chunk;
	// glue nodes forward the union of their inputs' origins.
	order, err := x.Order()
	if err != nil {
		return diags // already reported as GR-CYCLE
	}
	origins := make([][]chunk, x.Len())
	for _, i := range order {
		n := x.At(i)
		var in []chunk
		for _, t := range n.Inputs {
			if p := x.ProducerPos(t); p >= 0 {
				in = unionChunks(in, origins[p])
			}
		}
		if n.Exec.Mode == graph.ModePipeline {
			h := n.Exec.Pipeline
			if h.Parts >= 2 && h.Part >= 0 && h.Part < h.Parts && h.Stage >= 0 {
				for _, ch := range in {
					if ch.group != h.GroupID {
						continue
					}
					if ch.stage >= h.Stage || ch.part > h.Part {
						diags = append(diags, graphDiag(RuleGraphPipeOrder, n.Name, "", fmt.Sprintf(
							"chunk (stage %d, part %d) consumes chunk (stage %d, part %d) of group %d",
							h.Stage, h.Part, ch.stage, ch.part, ch.group)))
					}
				}
				// Downstream consumers see this node as its own chunk.
				in = []chunk{{h.GroupID, h.Stage, h.Part}}
			}
		}
		origins[i] = in
	}
	return diags
}

// chunk names one pipeline chunk: its group, stage and part.
type chunk struct{ group, stage, part int }

func (a chunk) cmp(b chunk) int {
	if c := cmp.Compare(a.group, b.group); c != 0 {
		return c
	}
	if c := cmp.Compare(a.stage, b.stage); c != 0 {
		return c
	}
	return cmp.Compare(a.part, b.part)
}

// unionChunks merges two sorted chunk sets. Neither input is modified; a
// side that adds nothing is returned as is.
func unionChunks(a, b []chunk) []chunk {
	switch {
	case len(b) == 0:
		return a
	case len(a) == 0:
		return b
	}
	out := make([]chunk, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch c := a[i].cmp(b[j]); {
		case c < 0:
			out = append(out, a[i])
			i++
		case c > 0:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

func missingChunk(group, stage, part, parts int) Diagnostic {
	return graphDiag(RuleGraphPipeParts, "", "",
		fmt.Sprintf("group %d stage %d is missing chunk %d of %d", group, stage, part, parts))
}
