package search

import (
	"strconv"

	"pimflow/internal/graph"
	"pimflow/internal/profcache"
	"pimflow/internal/runtime"
)

// pipeKeys builds the pipe/ profile-store keys of one runtime
// configuration: the cycles runtime.Execute schedules for one pipelining
// candidate, extracted from its graph and rewritten at a stage count.
//
// The key describes the probe, not the graph it came from. It holds the
// stage count, then for each chain node its op, its attributes in sorted
// order, its exec hint and its input shapes, with the wiring written as
// chain-local references: the chain input, an earlier chain node's
// output, or a weight. Node and tensor names are left out, so identical
// blocks at different depths of a model (or in different models) share
// one entry. The device suffix, interned once, fingerprints every
// runtime.Config field the schedule depends on.
type pipeKeys struct{ keys profcache.PipeKeys }

func newPipeKeys(rt runtime.Config) pipeKeys {
	return pipeKeys{profcache.NewPipeKeys(rt.InterconnectBytesPerCycle, rt.SyncOverheadCycles, rt.VerifyTraces,
		profcache.NewPIMKeys(rt.PIM, rt.Codegen), profcache.NewGPUKeys(rt.GPU))}
}

// chainKey returns the pipe/ key of the chain (nodes of g, in chain
// order) at the given stage count; frags holds the chain's fragments,
// chain node j's at index j.
func (k pipeKeys) chainKey(g *graph.Graph, chain []*graph.Node, frags nodeFrags, stages int) profcache.Key {
	var buf [768]byte // the five CNNs' chains take up to 535 bytes
	b := append(buf[:0], "stages="...)
	b = strconv.AppendInt(b, int64(stages), 10)
	chainIn := chain[0].Inputs[0]
	for j, n := range chain {
		b = append(b, frags.of(j)...)
		b = append(b, ";in="...)
		for pos, in := range n.Inputs {
			b = appendRef(b, g, chain, chainIn, pos, in)
		}
		b = append(b, ";out="...)
		b = strconv.AppendInt(b, int64(len(n.Outputs)), 10)
	}
	return k.keys.Key(b)
}

// nodeFrags holds node fragments (appendFragment) in one buffer: node i's
// is buf[at[i]:at[i+1]], empty for a node no chain covers.
type nodeFrags struct {
	buf []byte
	at  []int32
}

// fragments formats, once per Run, the fragment of each node of order
// that a candidate's chain covers. A candidate with Len 0 covers nothing.
func fragments(order []*graph.Node, pds []PipelineDecision) nodeFrags {
	at := make([]int32, len(order)+1) // first 1 for a covered node, then offsets
	covered := 0
	for _, pd := range pds {
		for i := pd.StartIdx; i < pd.StartIdx+pd.Len; i++ {
			if at[i] == 0 {
				at[i] = 1
				covered++
			}
		}
	}
	buf := make([]byte, 0, fragmentBytes*covered)
	for i, n := range order {
		cover := at[i] != 0
		at[i] = int32(len(buf))
		if cover {
			buf = appendFragment(buf, n)
		}
	}
	at[len(order)] = int32(len(buf))
	return nodeFrags{buf: buf, at: at}
}

// fragmentBytes sizes fragments' buffer per covered node: the five CNNs'
// fragments average 66 to 68 bytes.
const fragmentBytes = 80

// of returns node i's fragment.
func (f nodeFrags) of(i int) []byte { return f.buf[f.at[i]:f.at[i+1]] }

// span returns the fragments of nodes [lo, hi), renumbered from 0.
func (f nodeFrags) span(lo, hi int) nodeFrags { return nodeFrags{buf: f.buf, at: f.at[lo : hi+1]} }

// appendFragment writes the part of a chain node's key that no chain
// changes: '|', its op, its attributes in sorted order and its exec hint.
func appendFragment(b []byte, n *graph.Node) []byte {
	var attrs [8]graph.Attr // one node's attributes
	b = append(b, '|')
	b = append(b, n.Op...)
	b = appendAttrs(b, n.AppendAttrs(attrs[:0]))
	e := n.Exec
	b = append(b, "e="...)
	b = strconv.AppendInt(b, int64(e.Mode), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(e.Device), 10)
	b = append(b, ',')
	b = strconv.AppendFloat(b, e.GPURatio, 'g', -1, 64)
	for _, v := range [...]int{e.Pipeline.GroupID, e.Pipeline.Stage, e.Pipeline.Part, e.Pipeline.Parts} {
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return b
}

// appendAttrs writes a node's attributes (graph.Node.AppendAttrs) as
// "{i" name values... "}{f" name value... "}{s}": the integer lists, the
// floats and the always-empty string kind. Names are quoted, so no value
// can imitate a separator.
func appendAttrs(b []byte, attrs []graph.Attr) []byte {
	b = append(b, "{i"...)
	floats := false
	for _, a := range attrs {
		if a.Len == 0 && !floats {
			b, floats = append(b, "}{f"...), true
		}
		b = strconv.AppendQuote(b, a.Name)
		for i, v := range a.Ints[:a.Len] {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(v), 10)
		}
		if a.Len == 0 {
			b = strconv.AppendFloat(b, a.Float, 'g', -1, 64)
		}
		b = append(b, ';')
	}
	if !floats {
		b = append(b, "}{f"...)
	}
	return append(b, "}{s}"...)
}

// appendRef writes one chain-node input as a chain-local reference plus
// its shape: "n" j "." k for output k of chain node j, "i" for the chain
// input, "w" for a weight, and "x" for anything else (a tensor the
// extracted chain cannot see, so its probe fails; errors are not cached).
// The references mirror the graph simulatePipeline builds: the chain
// input is the first node's activation, and only inputs after an
// activation carry weights over.
func appendRef(b []byte, g *graph.Graph, chain []*graph.Node, chainIn string, pos int, name string) []byte {
	ti := g.Tensors[name]
	if j, k, ok := chainOutput(chain, name); ok {
		b = append(b, 'n')
		b = strconv.AppendInt(b, int64(j), 10)
		b = append(b, '.')
		b = strconv.AppendInt(b, int64(k), 10)
	} else if name == chainIn {
		b = append(b, 'i')
	} else if pos > 0 && ti != nil && ti.IsWeight() {
		b = append(b, 'w')
	} else {
		b = append(b, 'x')
	}
	b = append(b, '(')
	if ti != nil {
		for i, d := range ti.Shape {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(d), 10)
		}
	}
	return append(b, ')')
}

// chainOutput locates the tensor as output k of chain node j.
func chainOutput(chain []*graph.Node, name string) (j, k int, ok bool) {
	for j, c := range chain {
		for k, out := range c.Outputs {
			if out == name {
				return j, k, true
			}
		}
	}
	return 0, 0, false
}
