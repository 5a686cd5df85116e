package verify_test

import (
	"testing"

	"pimflow/internal/graph"
	"pimflow/internal/models"
	"pimflow/internal/runtime"
	"pimflow/internal/search"
	"pimflow/internal/verify"
)

// compiledZoo is one PIMFlow compile of each Light paper CNN: the graph
// the verify gate checks, the plan certificate, and the runtime config.
type compiledZoo struct {
	graphs []*graph.Graph
	certs  []*verify.PlanCertificate
	rc     runtime.Config
}

func compileZoo(b *testing.B) compiledZoo {
	b.Helper()
	var z compiledZoo
	for _, name := range models.EvaluatedCNNs() {
		g, err := models.Build(name, models.Options{Light: true})
		if err != nil {
			b.Fatal(err)
		}
		out, plan, err := search.Compile(g, search.DefaultOptions(search.PolicyPIMFlow))
		if err != nil {
			b.Fatalf("%s: %v", name, err)
		}
		z.graphs = append(z.graphs, out)
		z.certs = append(z.certs, plan.Certificate())
		z.rc = plan.Options.RuntimeConfig()
	}
	return z
}

// BenchmarkVerifyCompiledZoo times the compile-time verify gate: graph
// invariants plus every offloaded layer's command stream, linted as it is
// generated, across the five paper CNNs (one op = all five).
func BenchmarkVerifyCompiledZoo(b *testing.B) {
	z := compileZoo(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range z.graphs {
			if diags := verify.Compiled(g, z.rc.PIM, z.rc.Codegen); len(diags) != 0 {
				b.Fatal(verify.AsError(diags))
			}
		}
	}
}

// BenchmarkVerifyGraphZoo times the verify gate's graph tier alone: the
// GR-* invariants of the five paper CNNs' compiled graphs.
func BenchmarkVerifyGraphZoo(b *testing.B) {
	z := compileZoo(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range z.graphs {
			if diags := verify.Graph(g); len(diags) != 0 {
				b.Fatal(verify.AsError(diags))
			}
		}
	}
}

// BenchmarkPlanSearchZoo times the OP-* plan-optimality check (the exact
// solver's cross-check of the DP) across the five paper CNNs' plans.
func BenchmarkPlanSearchZoo(b *testing.B) {
	z := compileZoo(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range z.certs {
			if diags := verify.PlanSearch(c); len(diags) != 0 {
				b.Fatal(verify.AsError(diags))
			}
		}
	}
}

// BenchmarkVerifySchedule times the SR-* check of a certified bursty
// replay's schedule certificate (40 000 trace requests, about a third of
// them served), built outside the timer.
func BenchmarkVerifySchedule(b *testing.B) {
	c := burstyCert(b, 40_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if diags := verify.Schedule(c); len(diags) != 0 {
			b.Fatal(verify.AsError(diags))
		}
	}
}

// BenchmarkVerifyFleet times the FL-* and embedded SR-* checks of a
// certified 20 000-request replay through a four-machine fleet with a
// sequence graph, built outside the timer.
func BenchmarkVerifyFleet(b *testing.B) {
	c := graphFleetCert(b, 20_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if diags := verify.Fleet(c); len(diags) != 0 {
			b.Fatal(verify.AsError(diags))
		}
	}
}
