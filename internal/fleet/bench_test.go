package fleet_test

import (
	"context"
	"testing"

	"pimflow/internal/fleet"
	"pimflow/internal/load"
)

// graphScenario is four machines under Poisson traffic at 3/Mcycle: the
// builtin mobilenet-v2 pair (two replicas each) plus a "chain" sequence
// route over efficientnet-v1-b0 then mnasnet-1.0 backends, every model on
// a 16/8 slice, certificates on. Nothing is shed, so routing, hops,
// batching and fleet certification take the replay's time.
func graphScenario(n int) fleet.Scenario {
	base, err := load.Builtin("poisson")
	if err != nil {
		panic(err)
	}
	base.Name, base.Requests, base.RatePerMCycle = "fleet-graph", n, 3
	base.Models = append(base.Models, load.ModelLoad{Name: "chain"})
	backend := func(name, model string) load.ModelLoad {
		return load.ModelLoad{Name: name, Model: model, Policy: "PIMFlow",
			TotalChannels: 16, PIMChannels: 8, MaxBatch: 8, WindowCycles: 200_000}
	}
	return fleet.Scenario{
		Scenario: base,
		Machines: 4,
		Replicas: map[string]int{"mobilenet-gold": 2, "mobilenet-bronze": 2},
		Backends: []load.ModelLoad{backend("effnet", "efficientnet-v1-b0"), backend("mnas", "mnasnet-1.0")},
		Graphs: []fleet.Graph{{Name: "chain", Root: "root", Nodes: []fleet.GraphNode{
			{Name: "root", Type: "sequence", Steps: []fleet.GraphStep{{Model: "effnet"}, {Model: "mnas"}}},
		}}},
		Certify: true,
	}
}

// BenchmarkReplayFleetGraph times one certified fleet.Replay of a 20 000-
// request graph scenario (the FL-* and SR-* check included); each
// iteration replays on a freshly deployed fleet, built outside the timer.
func BenchmarkReplayFleetGraph(b *testing.B) {
	sc := graphScenario(20_000)
	reqs, err := load.Generate(sc.Scenario)
	if err != nil {
		b.Fatal(err)
	}
	var rep *load.Report
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f, err := fleet.NewScenarioFleet(sc, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		rep, err = fleet.Replay(f, sc, reqs)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		f.Shutdown(context.Background())
		b.StartTimer()
	}
	b.StopTimer()
	if !rep.Certified || rep.Served == 0 {
		b.Fatalf("replay not certified or nothing served: %+v", rep)
	}
	b.ReportMetric(float64(len(reqs))*float64(b.N)/b.Elapsed().Seconds(), "req/s")
	b.ReportMetric(float64(rep.P99), "p99_simcycles")
}
