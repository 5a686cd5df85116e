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
// in node order. The graph tier and each distinct workload's lint are
// independent tasks on the worker pool, each with its own linter; their
// diagnostics are assembled afterwards in that same order.
func Compiled(g *graph.Graph, pcfg pim.Config, copts codegen.Opts) []Diagnostic {
	type lowered struct {
		node string
		task int   // the workload's lint task, 0 when lowering failed
		err  error // why lowering failed
	}
	var (
		nodes     []lowered
		workloads []codegen.Workload
		tasks     = map[codegen.Workload]int{}
	)
	for _, n := range g.Nodes {
		if n.Exec.Device != graph.DevicePIM {
			continue
		}
		w, err := codegen.NodeWorkload(g, n)
		if err != nil {
			nodes = append(nodes, lowered{node: n.Name, err: err})
			continue
		}
		t, ok := tasks[w]
		if !ok {
			workloads = append(workloads, w)
			t = len(workloads) // task 0 is the graph tier
			tasks[w] = t
		}
		nodes = append(nodes, lowered{node: n.Name, task: t})
	}
	parts := runTasks(1+len(workloads), func(i int) []Diagnostic {
		if i == 0 {
			return Graph(g)
		}
		return Workload(workloads[i-1], pcfg, copts)
	})
	diags := parts[0]
	for _, n := range nodes {
		if n.err != nil {
			diags = append(diags, Diagnostic{
				Rule: RuleTraceCover, Node: n.node, Channel: -1, Index: -1,
				Msg: fmt.Sprintf("workload lowering failed: %v", n.err),
			})
			continue
		}
		for _, d := range parts[n.task] {
			d.Node = n.node
			diags = append(diags, d)
		}
	}
	return diags
}
