package transform

import (
	"errors"
	"fmt"

	"pimflow/internal/graph"
)

// ErrNotPipelineable is wrapped by every structural rejection of a chain:
// it is not a two-or-more-node chain of convolutions and activations,
// each feeding only the next, or it has too few output rows to cut into
// the requested stages. Callers classify with errors.Is; any other error
// from the pipelining pass is a real failure.
var ErrNotPipelineable = errors.New("not pipelineable")

// notPipelineable formats a structural rejection wrapping
// ErrNotPipelineable.
func notPipelineable(format string, args ...any) error {
	return fmt.Errorf("transform: "+format+": %w", append(args, ErrNotPipelineable)...)
}

// elementwiseOps are single-input ops that pipeline chunks pass through
// unchanged (activation functions between the convolutions of a pattern).
var elementwiseOps = map[graph.OpType]bool{
	graph.OpRelu: true, graph.OpClip: true, graph.OpSigmoid: true,
	graph.OpSiLU: true, graph.OpGelu: true, graph.OpIdentity: true,
}

// PipelineChain rewrites a chain of consecutive nodes (the paper's
// 1x1-DW / DW-1x1 / 1x1-DW-1x1 subgraph patterns, with activations in
// between) into `stages` pipeline stage nodes per chain node. Chunk j of
// node i+1 depends only on chunks 0..j of node i, so once the transformed
// graph is scheduled on two device queues, the middle stages overlap:
// while the PIM device computes chunk B of the first conv, the GPU already
// processes chunk A through the depthwise conv (Fig 5, nodes 3(A)..4(B)).
//
// groupID tags the created nodes' Exec.Pipeline hints so the runtime and
// reports can identify the subgraph.
//
// Only tests call it: transform's, runtime's, verify's, and search's
// reference pipeline probe.
func PipelineChain(g *graph.Graph, names []string, stages, groupID int) error {
	if err := PipelineChainIn(g.Index(), names, stages, groupID); err != nil {
		return err
	}
	return g.InferShapes()
}

// PipelineChainIn is PipelineChain of the graph x indexes, without the
// trailing whole-graph shape inference, for callers that batch several
// rewrites and infer once (see SplitMDDPNode). A rewrite replaces only
// its chain's nodes, and the nodes it adds read only the chain's input,
// its weights and each other, so the adjacency of nodes outside the chain
// is unchanged: one index serves a sequence of rewrites of disjoint
// chains.
func PipelineChainIn(x *graph.Index, names []string, stages, groupID int) error {
	repl, err := PipelineStages(x, names, stages, groupID)
	if err != nil {
		return err
	}
	g := x.Graph()
	if err := g.ReplaceNode(names[0], repl...); err != nil {
		return err
	}
	for _, name := range names[1:] {
		g.RemoveNode(name)
	}
	return nil
}

// PipelineStages validates the chain (nodes named names, in the graph x
// indexes) and returns, without changing the graph, the nodes that
// replace it in chunk-major order: they read only the chain's input, its
// weights and each other, and the last writes the chain's output.
func PipelineStages(x *graph.Index, names []string, stages, groupID int) ([]*graph.Node, error) {
	chain, err := chainNodes(x, names)
	if err != nil {
		return nil, err
	}
	bounds, err := chunkBounds(x, chain, stages)
	if err != nil {
		return nil, err
	}
	return stageNodes(x.Graph(), chain, bounds, stages, groupID), nil
}

// CheckPipeline reports whether PipelineChain would accept the chain at
// the given stage count, without rewriting anything: nil, an error
// wrapping ErrNotPipelineable, or a real failure (an unknown node, bad
// convolution attributes). x indexes the graph holding the chain.
func CheckPipeline(x *graph.Index, names []string, stages int) error {
	chain, err := chainNodes(x, names)
	if err != nil {
		return err
	}
	_, err = chunkBounds(x, chain, stages)
	return err
}

// chainNodes resolves the chain's node names.
func chainNodes(x *graph.Index, names []string) ([]*graph.Node, error) {
	if len(names) < 2 {
		return nil, notPipelineable("pipeline needs >= 2 nodes")
	}
	chain := make([]*graph.Node, len(names))
	for i, name := range names {
		n := x.Node(name)
		if n == nil {
			return nil, fmt.Errorf("transform: node %q not found", name)
		}
		chain[i] = n
	}
	return chain, nil
}

// chunkBounds validates the chain's structure (consecutive,
// single-consumer interior) and computes the cumulative chunk boundaries
// per node: bounds[i][j] is the number of output rows of chain node i
// finished after chunk j.
func chunkBounds(x *graph.Index, chain []*graph.Node, stages int) ([][]int, error) {
	g := x.Graph()
	if stages < 2 {
		return nil, notPipelineable("pipeline needs >= 2 stages")
	}
	for i, n := range chain {
		if n.Op != graph.OpConv && !elementwiseOps[n.Op] {
			return nil, notPipelineable("node %q (%s) cannot pipeline", n.Name, n.Op)
		}
		out := g.Tensors[n.Outputs[0]]
		if out == nil || !out.Shape.Valid() || len(out.Shape) != 4 {
			return nil, notPipelineable("node %q output not NHWC with known shape", n.Name)
		}
		if i == len(chain)-1 {
			continue
		}
		if chain[i+1].Inputs[0] != n.Outputs[0] {
			return nil, notPipelineable("%q does not feed %q", n.Name, chain[i+1].Name)
		}
		cs := x.Consumers(n.Outputs[0])
		if len(cs) != 1 {
			return nil, notPipelineable("interior node %q has %d consumers", n.Name, len(cs))
		}
	}

	bounds := make([][]int, len(chain))
	oh0 := g.Tensors[chain[0].Outputs[0]].Shape[1]
	if oh0 < stages {
		return nil, notPipelineable("first node has %d output rows < %d stages", oh0, stages)
	}
	bounds[0] = make([]int, stages)
	for j := 0; j < stages; j++ {
		bounds[0][j] = oh0 * (j + 1) / stages
	}
	for i := 1; i < len(chain); i++ {
		n := chain[i]
		oh := g.Tensors[n.Outputs[0]].Shape[1]
		bounds[i] = make([]int, stages)
		for j := 0; j < stages-1; j++ {
			if p := n.Conv; n.Op == graph.OpConv {
				bounds[i][j] = outputRowsFromPrefix(bounds[i-1][j], p.StrideH, p.KernelH, p.PadT, oh)
			} else {
				bounds[i][j] = bounds[i-1][j]
			}
		}
		bounds[i][stages-1] = oh
		prev := 0
		for j := 0; j < stages; j++ {
			if bounds[i][j] <= prev {
				return nil, notPipelineable("node %q chunk %d empty (bounds %v) at %d stages",
					n.Name, j, bounds[i], stages)
			}
			prev = bounds[i][j]
		}
	}
	return bounds, nil
}

// stageNodes generates the validated chain's replacement nodes (see
// PipelineStages).
func stageNodes(g *graph.Graph, chain []*graph.Node, bounds [][]int, stages, groupID int) []*graph.Node {
	var repl []*graph.Node
	// chunkOut[i][j] is the tensor holding chunk j of chain node i.
	chunkOut := make([][]string, len(chain))
	// prefixOut[i][j] is the tensor holding rows [0, bounds[i][j]) of node
	// i's output (a concat of chunks 0..j), created on demand.
	prefixOut := make([][]string, len(chain))
	for i := range chain {
		chunkOut[i] = make([]string, stages)
		prefixOut[i] = make([]string, stages)
	}

	for j := 0; j < stages; j++ {
		for i, n := range chain {
			o0 := 0
			if j > 0 {
				o0 = bounds[i][j-1]
			}
			o1 := bounds[i][j]
			partName := fmt.Sprintf("%s_p%d", n.Name, j)
			var part *graph.Node
			if p := n.Conv; n.Op == graph.OpConv {
				var srcH int
				var src string
				if i == 0 {
					src = n.Inputs[0]
					srcH = g.Tensors[src].Shape[1]
				} else {
					// Rows available: prefix of node i-1 up to chunk j.
					src = prefixFor(chain[i-1], chunkOut[i-1], prefixOut[i-1], j, &repl)
					srcH = bounds[i-1][j]
				}
				in0, in1, pt, pb := rowRange(o0, o1, p.StrideH, p.KernelH, p.PadT, srcH)
				slice := heightSlice(partName+"_slice", src, in0, in1)
				repl = append(repl, slice)
				part = derive(n, partName, append([]string{slice.Outputs[0]}, n.Inputs[1:]...))
				part.Conv.PadT, part.Conv.PadB = pt, pb
			} else {
				// Elementwise: boundaries align with the producer chunk.
				part = derive(n, partName, []string{chunkOut[i-1][j]})
			}
			dev := graph.DeviceGPU
			if g.IsPIMCandidate(n) {
				dev = graph.DevicePIM
			}
			part.Exec = graph.ExecHint{
				Mode:   graph.ModePipeline,
				Device: dev,
				Pipeline: graph.PipelineHint{
					GroupID: groupID, Stage: i, Part: j, Parts: stages,
				},
			}
			part.Pipelined = true
			repl = append(repl, part)
			chunkOut[i][j] = part.Outputs[0]
		}
	}
	// Reassemble the chain's final output under its original name.
	last := len(chain) - 1
	return append(repl, axis1Concat(chain[last].Name+"_concat", chunkOut[last], chain[last].Outputs[0]))
}

// prefixFor returns (creating if needed) the tensor that holds rows
// [0, bounds[j]) of the given chain node's output: chunk 0 alone for j==0,
// otherwise a concat of the previous prefix and chunk j.
func prefixFor(n *graph.Node, chunks, prefixes []string, j int, repl *[]*graph.Node) string {
	if j == 0 {
		prefixes[0] = chunks[0]
		return chunks[0]
	}
	if prefixes[j] != "" {
		return prefixes[j]
	}
	prev := prefixFor(n, chunks, prefixes, j-1, repl)
	name := fmt.Sprintf("%s_prefix%d", n.Name, j)
	c := axis1Concat(name, []string{prev, chunks[j]}, name+"_out")
	*repl = append(*repl, c)
	prefixes[j] = c.Outputs[0]
	return prefixes[j]
}
