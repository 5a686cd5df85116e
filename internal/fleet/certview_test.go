package fleet_test

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"pimflow/internal/fleet"
	"pimflow/internal/load"
	"pimflow/internal/verify"
)

// scalingScenario is the builtin fleet scaling point of pimflow-bench
// (fleet1, fleet2, fleet4) at n requests: the Poisson workload at
// 8/Mcycle with both mobilenet instances replicated onto every machine.
func scalingScenario(t *testing.T, machines, n int) fleet.Scenario {
	t.Helper()
	base, err := load.Builtin("poisson")
	if err != nil {
		t.Fatal(err)
	}
	base.Name, base.Requests, base.RatePerMCycle = fmt.Sprintf("fleet%d", machines), n, 8
	sc := fleet.Scenario{Scenario: base, Machines: machines, Replicas: map[string]int{}, Certify: true}
	for _, m := range base.Models {
		sc.Replicas[m.Name] = machines
	}
	return sc
}

// The in-place check of a certified fleet replay (Fleet.Verify) returns
// what verify.Fleet returns on the exported certificate on the builtin
// fleet scaling points and on a fleet-graph replay, clean, and again
// after forged hops appended to the live hop log, with the rule the
// exported check reports.
func TestInPlaceCheckMatchesExport(t *testing.T) {
	scenarios := []fleet.Scenario{scalingScenario(t, 1, 2000), scalingScenario(t, 2, 2000), scalingScenario(t, 4, 2000), graphScenario(3000)}
	for _, sc := range scenarios {
		reqs, err := load.Generate(sc.Scenario)
		if err != nil {
			t.Fatal(err)
		}
		f, _ := runFleet(t, sc, reqs)
		same := func(what, rule string) {
			t.Helper()
			got, want := f.Verify(), verify.Fleet(f.Certificate())
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %s: in place %v, exported %v", sc.Name, what, got, want)
			}
			if rule == "" && len(got) != 0 || rule != "" && !slices.ContainsFunc(got, func(d verify.Diagnostic) bool { return d.Rule == rule }) {
				t.Fatalf("%s %s: diagnostics %v, want one from %q", sc.Name, what, got, rule)
			}
		}
		same("replay", "")
		hops := f.Certificate().Hops
		f.ForgeHop(verify.FleetHop{Route: -1, Model: "ghost", Machine: "m0", After: -1})
		same("hop of an unplaced model", verify.RuleFleetRoute)
		if len(hops) == 0 {
			continue
		}
		gate := hops[0]
		f.ForgeHop(verify.FleetHop{Route: gate.Route, Model: gate.Model, Machine: gate.Machine,
			Arrival: gate.End - 1, End: gate.End, After: 0})
		same("hop arriving before its gate ends", verify.RuleFleetRoute)
	}
}

// A certified fleet-graph replay allocates what its uncertified twin
// allocates, plus the recorded rows, one partly filled page per log and
// the check's tables (the lease index and member spans, 40 bytes a
// lease, and the page headers): the check reads the rows in place. A
// copy of the rows, as the exported certificate holds them, would add
// their bytes again.
func TestCertifiedReplayAllocs(t *testing.T) {
	sc := graphScenario(20_000)
	reqs, err := load.Generate(sc.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	replay := func(certify bool) (uint64, *fleet.Fleet) {
		sc.Certify = certify
		f := newFleet(t, sc)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		rep, err := fleet.Replay(f, sc, reqs)
		runtime.ReadMemStats(&after)
		if err != nil || rep.Certified != certify {
			t.Fatalf("certify %v: replay %v, certified %v", certify, err, rep != nil && rep.Certified)
		}
		return after.TotalAlloc - before.TotalAlloc, f
	}
	plain, _ := replay(false)
	certified, f := replay(true)
	c := f.Certificate()
	rows := uint64(len(c.Hops)) * uint64(unsafe.Sizeof(verify.FleetHop{}))
	leases := 0
	for _, s := range c.Schedules {
		leases += len(s.Leases)
		rows += uint64(len(s.Leases))*uint64(unsafe.Sizeof(verify.ScheduleLease{})) +
			uint64(len(s.Requests))*uint64(unsafe.Sizeof(verify.ScheduleRequest{})) +
			uint64(len(s.Frontiers))*uint64(unsafe.Sizeof(verify.ScheduleFrontier{}))
	}
	const pageBytes, slack = 32 << 10, 64 << 10
	logs := uint64(1 + 3*len(c.Schedules))
	limit := plain + rows + logs*pageBytes + 48*uint64(leases) + slack
	t.Logf("uncertified %d bytes, certified %d, rows %d over %d logs, %d leases; limit %d", plain, certified, rows, logs, leases, limit)
	if certified > limit {
		t.Errorf("certified replay allocated %d bytes, want at most %d: %d uncertified + %d of rows + a page per log + the check's tables",
			certified, limit, plain, rows)
	}
}
