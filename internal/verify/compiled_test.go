package verify_test

import (
	"fmt"
	"reflect"
	"testing"

	"pimflow/internal/codegen"
	"pimflow/internal/graph"
	"pimflow/internal/models"
	"pimflow/internal/pim"
	"pimflow/internal/search"
	"pimflow/internal/verify"
)

// compiledReference is the per-node verify.Compiled that linted every
// offloaded node's stream again, however many nodes share its workload.
// The deduplicating gate must return exactly what it returns.
func compiledReference(g *graph.Graph, pcfg pim.Config, copts codegen.Opts) []verify.Diagnostic {
	diags := verify.Graph(g)
	for _, n := range g.Nodes {
		if n.Exec.Device != graph.DevicePIM {
			continue
		}
		w, err := codegen.NodeWorkload(g, n)
		if err != nil {
			diags = append(diags, verify.Diagnostic{
				Rule: verify.RuleTraceCover, Node: n.Name, Channel: -1, Index: -1,
				Msg: fmt.Sprintf("workload lowering failed: %v", err),
			})
			continue
		}
		for _, d := range verify.Workload(w, pcfg, copts) {
			d.Node = n.Name
			diags = append(diags, d)
		}
	}
	return diags
}

// brokenPIM is a configuration every stream fails to generate under, so
// every offloaded node draws a diagnostic.
func brokenPIM(c pim.Config) pim.Config {
	c.GlobalBufs = 3
	return c
}

// TestCompiledMatchesReference compares the gate with the per-node
// reference on the five compiled CNNs, under their own configuration
// (clean) and under one that fails every stream.
func TestCompiledMatchesReference(t *testing.T) {
	nodes, workloads := 0, 0
	for _, name := range models.EvaluatedCNNs() {
		g, err := models.Build(name, models.Options{Light: true})
		if err != nil {
			t.Fatal(err)
		}
		out, plan, err := search.Compile(g, search.DefaultOptions(search.PolicyPIMFlow))
		if err != nil {
			t.Fatal(err)
		}
		rc := plan.Options.RuntimeConfig()
		for _, pcfg := range []pim.Config{rc.PIM, brokenPIM(rc.PIM)} {
			got := verify.Compiled(out, pcfg, rc.Codegen)
			if want := compiledReference(out, pcfg, rc.Codegen); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Compiled =\n%v\nreference =\n%v", name, got, want)
			}
		}
		distinct := map[codegen.Workload]bool{}
		for _, n := range out.Nodes {
			if n.Exec.Device == graph.DevicePIM {
				w, err := codegen.NodeWorkload(out, n)
				if err != nil {
					t.Fatal(err)
				}
				nodes++
				distinct[w] = true
			}
		}
		workloads += len(distinct)
	}
	t.Logf("%d offloaded nodes lower to %d workloads distinct within their model", nodes, workloads)
}

// TestCompiledSharedWorkloadDiagnostics forges a graph where two
// offloaded nodes share a workload that draws a diagnostic, with an
// unlowerable PIM-annotated node between them: every node must carry its
// own diagnostics, in node order, as in the reference.
func TestCompiledSharedWorkloadDiagnostics(t *testing.T) {
	g, err := models.Build("mobilenet-v2", models.Options{Light: true})
	if err != nil {
		t.Fatal(err)
	}
	opts := search.DefaultOptions(search.PolicyPIMFlow)
	opts.Policy = search.PolicyNewtonPlusPlus // whole-layer offloads only
	out, plan, err := search.Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	rc := plan.Options.RuntimeConfig()

	// Find two offloaded nodes with one workload and a depthwise conv
	// between them, and annotate the depthwise conv for PIM.
	first := map[codegen.Workload]int{}
	forged := ""
	for i, n := range out.Nodes {
		if n.Exec.Device != graph.DevicePIM {
			continue
		}
		w, err := codegen.NodeWorkload(out, n)
		if err != nil {
			t.Fatal(err)
		}
		j, seen := first[w]
		if !seen {
			first[w] = i
			continue
		}
		for _, m := range out.Nodes[j+1 : i] {
			if m.Op == graph.OpConv && out.IsDepthwise(m) {
				m.Exec.Device = graph.DevicePIM
				forged = m.Name
				break
			}
		}
		if forged != "" {
			break
		}
	}
	if forged == "" {
		t.Fatal("no shared workload with a depthwise conv between its nodes")
	}

	for _, pcfg := range []pim.Config{rc.PIM, brokenPIM(rc.PIM)} {
		got := verify.Compiled(out, pcfg, rc.Codegen)
		want := compiledReference(out, pcfg, rc.Codegen)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Compiled =\n%v\nreference =\n%v", got, want)
		}
		if len(got) == 0 {
			t.Error("forged graph drew no diagnostics")
		}
	}
	broken := verify.Compiled(out, brokenPIM(rc.PIM), rc.Codegen)
	byNode := map[string]int{}
	for _, d := range broken {
		byNode[d.Node]++
	}
	for _, n := range out.Nodes {
		if n.Exec.Device == graph.DevicePIM && byNode[n.Name] != 1 {
			t.Errorf("node %q has %d diagnostics, want 1", n.Name, byNode[n.Name])
		}
	}
}
