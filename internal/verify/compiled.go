package verify

import (
	"fmt"

	"pimflow/internal/codegen"
	"pimflow/internal/graph"
	"pimflow/internal/pim"
)

// Compiled statically checks a transformed, ready-to-execute graph end to
// end: the graph-IR invariants first, then every offloaded layer's PIM
// command stream against the §4.1 protocol state machine and the
// workload-coverage oracle, linted as it is generated. A node annotated
// for PIM that cannot be lowered to a PIM workload (a depthwise conv, an
// elementwise op) is a TR-COVER violation, since the runtime refuses it.
// It returns all violations, empty when the model is clean; nothing is
// simulated. The serving layer's model registry and the public
// CompiledModel.Verify both gate on this sweep.
//
// A stream depends only on its workload and the configuration, and a
// model's layers repeat shapes (the five paper CNNs' 193 offloaded nodes
// lower to 95 workloads), so each distinct workload is linted once per
// call and its diagnostics are copied onto every node that lowers to it,
// in node order.
func Compiled(g *graph.Graph, pcfg pim.Config, copts codegen.Opts) []Diagnostic {
	diags := Graph(g)
	linted := map[codegen.Workload][]Diagnostic{}
	for _, n := range g.Nodes {
		if n.Exec.Device != graph.DevicePIM {
			continue
		}
		w, err := codegen.NodeWorkload(g, n)
		if err != nil {
			diags = append(diags, Diagnostic{
				Rule: RuleTraceCover, Node: n.Name, Channel: -1, Index: -1,
				Msg: fmt.Sprintf("workload lowering failed: %v", err),
			})
			continue
		}
		wd, ok := linted[w]
		if !ok {
			wd = Workload(w, pcfg, copts)
			linted[w] = wd
		}
		for _, d := range wd {
			d.Node = n.Name
			diags = append(diags, d)
		}
	}
	return diags
}
