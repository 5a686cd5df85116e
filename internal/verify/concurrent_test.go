package verify_test

import (
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"pimflow/internal/codegen"
	"pimflow/internal/graph"
	"pimflow/internal/models"
	"pimflow/internal/pim"
	"pimflow/internal/search"
	"pimflow/internal/verify"
)

// Compiled, Schedule and Fleet run their independent checks as tasks on
// the worker pool and assemble the diagnostics in serial order. These
// tests hold that assembly to the serial references from two sides:
// many callers at once, and reference inputs whose diagnostics come from
// more than one task, so a misordered assembly changes what they return.

// compiledTasks counts the tasks of Compiled(g) that contributed a
// diagnostic: the graph tier, and each distinct workload some node's
// diagnostic came from.
func compiledTasks(g *graph.Graph, diags []verify.Diagnostic) int {
	byName := map[string]*graph.Node{}
	for _, n := range g.Nodes {
		byName[n.Name] = n
	}
	graphTier := 0
	workloads := map[codegen.Workload]bool{}
	for _, d := range diags {
		if strings.HasPrefix(d.Rule, "GR-") {
			graphTier = 1
			continue
		}
		if w, err := codegen.NodeWorkload(g, byName[d.Node]); err == nil {
			workloads[w] = true
		}
	}
	return graphTier + len(workloads)
}

// scheduleTasks counts the tasks of Schedule that contributed a
// diagnostic: SR-OVERLAP's sweep, and the frontier, request and window
// sweeps. SR-DEMAND comes from the serial lease loop.
func scheduleTasks(diags []verify.Diagnostic) int {
	overlap, sweeps := 0, 0
	for _, d := range diags {
		switch d.Rule {
		case verify.RuleSchedOverlap:
			overlap = 1
		case verify.RuleSchedFrontier, verify.RuleSchedLease, verify.RuleSchedWindow, verify.RuleSchedPartition:
			sweeps = 1
		}
	}
	return overlap + sweeps
}

// fleetTasks counts the tasks of Fleet(c) that contributed a
// diagnostic: the FL-* rules, and each machine whose schedule draws one.
func fleetTasks(c verify.FleetCertificate, diags []verify.Diagnostic) int {
	n := 0
	for _, d := range diags {
		if strings.HasPrefix(d.Rule, "FL-") {
			n = 1
			break
		}
	}
	for _, s := range c.Schedules {
		if len(verify.Schedule(s)) > 0 {
			n++
		}
	}
	return n
}

// fleetForgeryInputs returns the base certificate of
// TestFleetMatchesReferenceOnForgeries with its machine lists.
func fleetForgeryInputs(t *testing.T) (base verify.FleetCertificate, machines, busy []string) {
	t.Helper()
	base = graphFleetCert(t, 600)
	for _, m := range base.Machines {
		machines = append(machines, m.Name)
		if s := base.Schedules[m.Name]; len(s.Leases) >= 4 && len(s.Frontiers) >= 2 {
			busy = append(busy, m.Name)
		}
	}
	if len(busy) == 0 {
		t.Fatal("no machine certified enough leases to forge")
	}
	return base, machines, busy
}

// TestReferenceInputsSpanTasks walks the inputs of the reference tests
// (the brokenPIM zoo of TestCompiledMatchesReference and the seeded
// forgeries of TestScheduleMatchesReferenceOnForgeries and
// TestFleetMatchesReferenceOnForgeries) and counts, for each checker,
// the inputs whose diagnostics come from two or more tasks. A zero
// count would let an assembly-order bug pass those tests unseen.
func TestReferenceInputsSpanTasks(t *testing.T) {
	compiled := 0
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
		if compiledTasks(out, verify.Compiled(out, brokenPIM(rc.PIM), rc.Codegen)) >= 2 {
			compiled++
		}
	}

	schedule := 0
	base := burstyCert(t, 400)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		if scheduleTasks(verify.Schedule(forgeSchedule(rng, base))) >= 2 {
			schedule++
		}
	}

	fleet := 0
	fbase, machines, busy := fleetForgeryInputs(t)
	rng = rand.New(rand.NewSource(1))
	for i := 0; i < 1500; i++ {
		c := forgeFleet(rng, fbase, machines, busy)
		if fleetTasks(c, verify.Fleet(c)) >= 2 {
			fleet++
		}
	}

	t.Logf("inputs spanning two or more tasks: Compiled %d of 5 CNNs, Schedule %d of 3000, Fleet %d of 1500",
		compiled, schedule, fleet)
	if compiled == 0 || schedule == 0 || fleet == 0 {
		t.Fatal("a reference test has no input whose diagnostics span two tasks")
	}
}

// TestVerifyConcurrentCallers calls Compiled, Schedule and Fleet from
// eight goroutines at once on shared inputs, as concurrent
// Registry.Loads and certified replays do, so pools run side by side and
// Fleet's nest Schedule's. Every result must equal the serial reference.
// Each input draws diagnostics from every kind of task its checker
// runs: the graph tier and workloads, SR-OVERLAP and the other sweeps,
// the FL-* rules and two machines.
func TestVerifyConcurrentCallers(t *testing.T) {
	g, err := models.Build("mobilenet-v2", models.Options{Light: true})
	if err != nil {
		t.Fatal(err)
	}
	out, plan, err := search.Compile(g, search.DefaultOptions(search.PolicyPIMFlow))
	if err != nil {
		t.Fatal(err)
	}
	// A graph-tier violation: the declared output shape disagrees with
	// re-inference. No workload reads the output tensor.
	o := *out.Tensors[out.Outputs[0]]
	o.Shape = slices.Clone(o.Shape)
	o.Shape[0] *= 2
	out.Tensors[out.Outputs[0]] = &o
	rc := plan.Options.RuntimeConfig()
	pcfgs := []pim.Config{rc.PIM, brokenPIM(rc.PIM)}
	wantCompiled := make([][]verify.Diagnostic, len(pcfgs))
	for i, pcfg := range pcfgs {
		wantCompiled[i] = compiledReference(out, pcfg, rc.Codegen)
	}
	if len(wantCompiled[1]) == 0 || !strings.HasPrefix(wantCompiled[1][0].Rule, "GR-") ||
		compiledTasks(out, wantCompiled[1]) < 3 {
		t.Fatalf("forged graph does not draw graph-tier and workload diagnostics: %v", wantCompiled[1])
	}

	rng := rand.New(rand.NewSource(1))
	base := burstyCert(t, 400)
	sched := forgeSchedule(rng, base)
	for scheduleTasks(verify.ReferenceSchedule(sched)) < 2 {
		sched = forgeSchedule(rng, base)
	}
	wantSched := verify.ReferenceSchedule(sched)

	fbase, machines, busy := fleetForgeryInputs(t)
	if len(busy) < 2 {
		t.Fatalf("only %d machines certified enough leases to forge", len(busy))
	}
	var fl verify.FleetCertificate
	for fleetTasks(fl, verify.ReferenceFleet(fl)) < 3 {
		fl = forgeFleet(rng, fbase, machines, busy)
		schedules := maps.Clone(fl.Schedules)
		for _, name := range busy[:2] {
			schedules[name] = forgeSchedule(rng, schedules[name])
		}
		fl.Schedules = schedules
	}
	wantFleet := verify.ReferenceFleet(fl)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				k := (w + i) % len(pcfgs)
				if got := verify.Compiled(out, pcfgs[k], rc.Codegen); !reflect.DeepEqual(got, wantCompiled[k]) {
					t.Errorf("caller %d: Compiled =\n%v\nreference =\n%v", w, got, wantCompiled[k])
				}
				if got := verify.Schedule(sched); !reflect.DeepEqual(got, wantSched) {
					t.Errorf("caller %d: Schedule =\n%v\nreference =\n%v", w, got, wantSched)
				}
				if got := verify.Fleet(fl); !reflect.DeepEqual(got, wantFleet) {
					t.Errorf("caller %d: Fleet =\n%v\nreference =\n%v", w, got, wantFleet)
				}
			}
		}()
	}
	wg.Wait()
}
