package search

import (
	"pimflow/internal/graph"
	"pimflow/internal/interp"
	"pimflow/internal/profcache"
	"pimflow/internal/tensor"
	"pimflow/internal/transform"
)

func interpRun(g *graph.Graph, in *tensor.Tensor) (*tensor.Tensor, error) {
	return interp.RunSingle(g, in)
}

// pipeline is the pooled pipelining probe of one chain (nodes of the
// graph x indexes, in chain order), its key fragments formatted afresh.
func (p *profiler) pipeline(x *graph.Index, chain []*graph.Node, cand transform.Candidate, stages int) (int64, error) {
	return p.pipelineProbe(x, chain, chainFragments(chain), cand, stages, false)
}

// key is the pipe/ key of one chain (nodes of g, in chain order), its key
// fragments formatted afresh.
func (k pipeKeys) key(g *graph.Graph, chain []*graph.Node, stages int) profcache.Key {
	return k.chainKey(g, chain, chainFragments(chain), stages)
}

// chainFragments formats the fragments of one chain's nodes.
func chainFragments(chain []*graph.Node) nodeFrags {
	return fragments(chain, []PipelineDecision{{Len: len(chain)}})
}
