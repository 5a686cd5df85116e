package transform

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

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
// It splices PipelineStages into g where the chain's first node stood,
// drops the chain's other nodes, and re-infers g's shapes.
//
// groupID tags the created nodes' Exec.Pipeline hints so the runtime and
// reports can identify the subgraph.
//
// Only tests call it: transform's, runtime's, verify's, and search's
// references for its pipeline probe and Apply.
func PipelineChain(g *graph.Graph, names []string, stages, groupID int) error {
	repl, err := PipelineStages(g.Index(), names, stages, groupID)
	if err != nil {
		return err
	}
	if err := g.ReplaceNode(names[0], repl...); err != nil {
		return err
	}
	for _, name := range names[1:] {
		g.RemoveNode(name)
	}
	return g.InferShapes()
}

// PipelineStages validates the chain (nodes named names, in the graph x
// indexes) and returns, without changing the graph, the nodes that
// replace it in chunk-major order: they read only the chain's input, its
// weights and each other, and the last, a Concat, re-creates the chain's
// output under its name at its shape. search.Apply puts them where the
// chain's first node stood, and the search's pipeline probe schedules
// them alone.
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
	// Per chunk, a convolution makes a Slice and a part, and an
	// elementwise node a part; the node before a convolution makes a
	// prefix Concat per chunk after the first. The final Concat joins
	// the last node's chunks.
	nodes, names, text := 1, stages+1, len(chain[len(chain)-1].Name)+7
	for i, n := range chain {
		text += stages * (3*len(n.Name) + 40)
		if n.Op != graph.OpConv {
			nodes += stages
			names += 2 * stages
			continue
		}
		nodes += 2 * stages
		names += stages * (len(n.Inputs) + 3)
		if i > 0 {
			nodes += stages - 1
			names += 3 * (stages - 1)
		}
	}
	var b block
	b.grow(nodes, names, text)
	repl := make([]*graph.Node, 0, nodes)
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
			partOut := b.name(n.Name, "_p", strconv.Itoa(j), outSuffix)
			partName := strings.TrimSuffix(partOut, outSuffix)
			part := b.node()
			if p := n.Conv; n.Op == graph.OpConv {
				var srcH int
				var src string
				if i == 0 {
					src = n.Inputs[0]
					srcH = g.Tensors[src].Shape[1]
				} else {
					// Rows available: prefix of node i-1 up to chunk j.
					src = prefixFor(&b, chain[i-1], chunkOut[i-1], prefixOut[i-1], j, &repl)
					srcH = bounds[i-1][j]
				}
				in0, in1, pt, pb := rowRange(o0, o1, p.StrideH, p.KernelH, p.PadT, srcH)
				sliceOut := b.name(partName, "_slice", outSuffix)
				slice := b.node()
				heightSlice(slice, strings.TrimSuffix(sliceOut, outSuffix), b.list(src), b.list(sliceOut), in0, in1)
				repl = append(repl, slice)
				derive(part, n, partName, b.list(sliceOut, n.Inputs[1:]...), b.list(partOut))
				part.Conv.PadT, part.Conv.PadB = pt, pb
			} else {
				// Elementwise: boundaries align with the producer chunk.
				derive(part, n, partName, b.list(chunkOut[i-1][j]), b.list(partOut))
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
			chunkOut[i][j] = partOut
		}
	}
	// Reassemble the chain's final output under its original name.
	last := len(chain) - 1
	concat := b.node()
	axis1Concat(concat, b.name(chain[last].Name, "_concat"), b.list(chunkOut[last][0], chunkOut[last][1:]...), b.list(chain[last].Outputs[0]))
	return append(repl, concat)
}

// prefixFor returns (creating if needed) the tensor that holds rows
// [0, bounds[j]) of the given chain node's output: chunk 0 alone for j==0,
// otherwise a concat of the previous prefix and chunk j.
func prefixFor(b *block, n *graph.Node, chunks, prefixes []string, j int, repl *[]*graph.Node) string {
	if j == 0 {
		prefixes[0] = chunks[0]
		return chunks[0]
	}
	if prefixes[j] != "" {
		return prefixes[j]
	}
	prev := prefixFor(b, n, chunks, prefixes, j-1, repl)
	out := b.name(n.Name, "_prefix", strconv.Itoa(j), outSuffix)
	c := b.node()
	axis1Concat(c, strings.TrimSuffix(out, outSuffix), b.list(prev, chunks[j]), b.list(out))
	*repl = append(*repl, c)
	prefixes[j] = out
	return out
}
