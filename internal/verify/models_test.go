package verify_test

import (
	"strings"
	"testing"

	"pimflow/internal/codegen"
	"pimflow/internal/graph"
	"pimflow/internal/models"
	"pimflow/internal/runtime"
	"pimflow/internal/search"
	"pimflow/internal/transform"
	"pimflow/internal/verify"
)

// TestPaperModelsVerifyAcrossPasses is the issue's acceptance criterion:
// every evaluated CNN (plus the toy model) passes the graph checker at
// every point of the compilation pipeline — as built, after BatchNorm
// folding, and after the full search-and-apply — and every trace codegen
// emits for its offloaded layers passes the command-stream linter.
func TestPaperModelsVerifyAcrossPasses(t *testing.T) {
	names := append(models.EvaluatedCNNs(), "toy")
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			g, err := models.Build(name, models.Options{Light: true})
			if err != nil {
				t.Fatal(err)
			}
			if diags := verify.Graph(g); len(diags) != 0 {
				t.Fatalf("as built:\n%v", verify.AsError(diags))
			}
			if _, err := transform.FoldBatchNorm(g); err != nil {
				t.Fatal(err)
			}
			if diags := verify.Graph(g); len(diags) != 0 {
				t.Fatalf("after BN fold:\n%v", verify.AsError(diags))
			}

			// Full compile with the verify gate on: Apply re-checks the
			// graph after every transformation pass internally, and the
			// runtime lints every trace the profiler simulates.
			opts := search.DefaultOptions(search.PolicyPIMFlow)
			opts.Verify = true
			out, plan, err := search.Compile(g, opts)
			if err != nil {
				t.Fatalf("compile with verify gate: %v", err)
			}
			if diags := verify.Graph(out); len(diags) != 0 {
				t.Fatalf("after apply:\n%v", verify.AsError(diags))
			}

			// Lint every offloaded layer's generated trace end to end.
			rc := plan.Options.RuntimeConfig()
			linted := 0
			for _, n := range out.Nodes {
				if n.Exec.Device != graph.DevicePIM || !out.IsPIMCandidate(n) {
					continue
				}
				w, err := codegen.NodeWorkload(out, n)
				if err != nil {
					t.Fatalf("node %q workload: %v", n.Name, err)
				}
				if diags := verify.Workload(w, rc.PIM, rc.Codegen); len(diags) != 0 {
					t.Errorf("node %q trace:\n%v", n.Name, verify.AsError(diags))
				}
				linted++
			}
			if name != "toy" && linted == 0 {
				t.Errorf("expected at least one offloaded layer in %s", name)
			}
		})
	}
}

// TestCompiledFlagsNonOffloadablePIMNode holds the static gate to the
// runtime's contract: a compiled graph with a depthwise conv annotated
// for PIM is refused by runtime.Execute, so verify.Compiled must refuse
// it too (TR-COVER: the node does not lower to a PIM workload).
func TestCompiledFlagsNonOffloadablePIMNode(t *testing.T) {
	g, err := models.Build("mobilenet-v2", models.Options{Light: true})
	if err != nil {
		t.Fatal(err)
	}
	opts := search.DefaultOptions(search.PolicyPIMFlow)
	out, plan, err := search.Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	rc := plan.Options.RuntimeConfig()
	if diags := verify.Compiled(out, rc.PIM, rc.Codegen); len(diags) != 0 {
		t.Fatalf("clean compile: %v", verify.AsError(diags))
	}
	var dw *graph.Node
	for _, n := range out.Nodes {
		if n.Op == graph.OpConv && out.IsDepthwise(n) && n.Exec.Device != graph.DevicePIM {
			dw = n
			break
		}
	}
	if dw == nil {
		t.Fatal("no GPU depthwise conv in compiled mobilenet-v2")
	}
	dw.Exec.Device = graph.DevicePIM

	if _, err := runtime.Execute(out, rc); err == nil || !strings.Contains(err.Error(), "not offloadable") {
		t.Fatalf("runtime.Execute = %v, want the not-offloadable refusal", err)
	}
	diags := verify.Compiled(out, rc.PIM, rc.Codegen)
	if len(diags) != 1 || diags[0].Rule != verify.RuleTraceCover || diags[0].Node != dw.Name ||
		!strings.Contains(diags[0].Msg, "workload lowering failed") {
		t.Fatalf("verify.Compiled = %v, want one TR-COVER lowering failure on %q", diags, dw.Name)
	}
}
