package search

import (
	"errors"
	"fmt"
	"testing"

	"pimflow/internal/graph"
	"pimflow/internal/runtime"
	"pimflow/internal/transform"
)

// extractChain builds a standalone graph containing clones of the chain
// nodes (the first node's activation input becomes the graph input;
// weights carry over), so a layer or chain can be rewritten and executed
// in isolation.
func extractChain(g *graph.Graph, chain []*graph.Node) (*graph.Graph, error) {
	sub := graph.New("chain")
	first := chain[0]
	inTI := g.Tensors[first.Inputs[0]]
	if inTI == nil || !inTI.Shape.Valid() {
		return nil, fmt.Errorf("search: chain input shape unknown")
	}
	sub.AddInput(first.Inputs[0], inTI.Shape...)
	for _, n := range chain {
		for _, in := range n.Inputs[1:] {
			ti := g.Tensors[in]
			if ti == nil {
				return nil, fmt.Errorf("search: tensor %q unknown", in)
			}
			if ti.IsWeight() {
				sub.Tensors[in] = &graph.TensorInfo{Name: in, Shape: ti.Shape.Clone(), Init: ti.Init, Param: true}
			}
		}
		sub.AddNode(n.Clone())
	}
	sub.MarkOutput(chain[len(chain)-1].Outputs[0])
	if err := sub.InferShapes(); err != nil {
		return nil, err
	}
	return sub, nil
}

// referencePipelineProbe is the pipeline probe simulatePipeline replaced:
// extract the chain, rewrite the extracted graph in place with
// transform.PipelineChain, elide data movement and execute.
func referencePipelineProbe(p *profiler, g *graph.Graph, chain []*graph.Node, names []string, stages int) (int64, error) {
	sub, err := extractChain(g, chain)
	if err != nil {
		return 0, err
	}
	if err := transform.PipelineChain(sub, names, stages, 0); err != nil {
		return 0, err
	}
	transform.ElideDataMovement(sub)
	rep, err := runtime.Execute(sub, p.rt)
	if err != nil {
		return 0, err
	}
	return rep.TotalCycles, nil
}

// errClass names an error's class for the probe comparison.
func errClass(err error) string {
	switch {
	case err == nil:
		return "nil"
	case errors.Is(err, transform.ErrNotPipelineable):
		return "not pipelineable"
	default:
		return "failure"
	}
}

// TestPipelineProbeMatchesReference holds the one-graph pipeline probe to
// the extract-and-rewrite probe it replaced: equal cycles and the same
// error class for every pipelining candidate of the five CNNs at 2, 3 and
// 4 stages, under the default options and under Options.Verify. A chain
// whose input has no shape, or whose weight is missing, fails the same
// way on both.
func TestPipelineProbeMatchesReference(t *testing.T) {
	cases := zooPipeCases(t)
	for _, verify := range []bool{false, true} {
		opts := DefaultOptions(PolicyPIMFlow)
		opts.Verify = verify
		p := newProfiler(opts)
		probes, rejected := 0, 0
		for _, c := range cases {
			for _, stages := range []int{2, 3, 4} {
				want, werr := referencePipelineProbe(p, c.g, c.chain, c.cand.Nodes, stages)
				got, gerr := p.simulatePipeline(c.g, c.chain, c.cand.Nodes, stages)
				if got != want || errClass(gerr) != errClass(werr) {
					t.Errorf("verify=%v %v at %d stages: probe %d cycles (%v), reference %d (%v)",
						verify, c.cand.Nodes, stages, got, gerr, want, werr)
				}
				probes++
				if werr != nil {
					rejected++
				}
			}
		}
		t.Logf("verify=%v: %d probes, %d rejected", verify, probes, rejected)
		if rejected == 0 || rejected == probes {
			t.Errorf("verify=%v: %d of %d probes rejected: the comparison misses a class", verify, rejected, probes)
		}
	}

	// Broken chains: an unshaped input and an unknown weight.
	c := cases[0]
	unshaped := c.g.CloneTensors()
	unshaped.Tensors[c.chain[0].Inputs[0]] = &graph.TensorInfo{Name: c.chain[0].Inputs[0]}
	p := newProfiler(DefaultOptions(PolicyPIMFlow))
	for name, g := range map[string]*graph.Graph{"unshaped input": unshaped, "unknown weight": withoutWeight(c.g, c.chain)} {
		_, werr := referencePipelineProbe(p, g, c.chain, c.cand.Nodes, 2)
		_, gerr := p.simulatePipeline(g, c.chain, c.cand.Nodes, 2)
		if werr == nil || gerr == nil || gerr.Error() != werr.Error() {
			t.Errorf("%s: probe error %v, reference %v", name, gerr, werr)
		}
	}
}

// withoutWeight returns a view of g with the chain's first weight
// undeclared.
func withoutWeight(g *graph.Graph, chain []*graph.Node) *graph.Graph {
	v := g.CloneTensors()
	for _, n := range chain {
		if len(n.Inputs) > 1 {
			delete(v.Tensors, n.Inputs[1])
			break
		}
	}
	return v
}
