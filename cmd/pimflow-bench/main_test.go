package main

import (
	"testing"

	"pimflow/internal/load"
	"pimflow/internal/obs"
)

// scenarioMetrics is what TestScenarioGolden pins of one replay: its
// counts, latency percentiles, makespan, mean batch, certified leases,
// and the stage splits (queue, batch window, lease wait, execute) of the
// requests at the p50, p99 and p999 ranks.
type scenarioMetrics struct {
	served, shed, sloMiss int
	p50, p99, p999        int64
	makespan              int64
	meanBatch             float64
	leases                int
	splits                [3][4]int64
}

func metricsOf(rep *load.Report) scenarioMetrics {
	m := scenarioMetrics{
		served: rep.Served, shed: rep.Shed, sloMiss: rep.SLOMiss,
		p50: rep.P50, p99: rep.P99, p999: rep.P999,
		makespan: rep.MakespanCycles, meanBatch: rep.MeanBatch, leases: rep.CertifiedLeases,
	}
	if at := rep.Attributed; at != nil {
		for i, a := range []load.AttributedRequest{at.P50, at.P99, at.P999} {
			m.splits[i] = [4]int64{a.Stages.Queue, a.Stages.BatchWait, a.Stages.LeaseWait, a.Stages.Execute}
		}
	}
	return m
}

// TestScenarioGolden replays every builtin scenario under the options
// the command uses with -certify and compares its virtual metrics
// exactly. The replays are deterministic, so a moved value is a change
// in behaviour, not noise.
func TestScenarioGolden(t *testing.T) {
	golden := map[string]scenarioMetrics{
		"poisson": {10000, 0, 3460, 847098, 3161503, 5099043, 2466031216, 1.7504, 6934,
			[3][4]int64{{0, 0, 31877, 815221}, {0, 0, 2346282, 815221}, {0, 146427, 4137395, 815221}}},
		"diurnal": {10000, 0, 4335, 1097164, 3304754, 4179123, 2499892516, 1.9544, 6462,
			[3][4]int64{{0, 0, 674127, 423037}, {0, 0, 2881717, 423037}, {0, 109212, 3646874, 423037}}},
		"bursty": {3832, 6168, 3804, 12859253, 13557129, 13944416, 789126165, 2.075678496868476, 2415,
			[3][4]int64{{0, 0, 12044032, 815221}, {0, 0, 11957540, 1599589}, {0, 0, 11952643, 1991773}}},
		"fleet1": {6018, 3982, 5988, 13037404, 13577431, 13703065, 1245638640, 1.691924227318046, 4222,
			[3][4]int64{{0, 0, 12614367, 423037}, {0, 0, 12762210, 815221}, {0, 0, 12887844, 815221}}},
		"fleet2": {10000, 0, 2381, 783156, 1961684, 2906677, 1233278447, 1.6454, 7190,
			[3][4]int64{{0, 110592, 249527, 423037}, {0, 0, 754279, 1207405}, {0, 116788, 1974668, 815221}}},
		"fleet4": {10000, 0, 765, 560304, 1207405, 1599589, 1233025499, 1.6072, 7307,
			[3][4]int64{{0, 137267, 0, 423037}, {0, 0, 0, 1207405}, {0, 0, 0, 1599589}}},
	}
	names := scenarioNames("all,fleet")
	if len(names) != len(golden) {
		t.Fatalf("\"all,fleet\" expands to %v, want the %d pinned scenarios", names, len(golden))
	}
	for _, name := range names {
		rep, err := replay(name, load.RunOptions{RequestLog: 512, Certify: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := metricsOf(rep), golden[name]; got != want {
			t.Errorf("%s:\n got %#v\nwant %#v", name, got, want)
		}
	}
}

// TestFleetReplayDrawsTrace replays a fleet scaling point with -trace:
// the fleet draws every batch's GPU and PIM spans into the shared
// trace, and tracing changes none of the replay's virtual metrics.
func TestFleetReplayDrawsTrace(t *testing.T) {
	tr := obs.NewTrace()
	traced, err := replay("fleet1", load.RunOptions{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := replay("fleet1", load.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := metricsOf(traced), metricsOf(plain); got != want {
		t.Errorf("traced fleet1 replay:\n got %#v\nwant %#v", got, want)
	}
	spans := map[int]int{}
	for _, e := range tr.Events() {
		if e.Phase == "X" && e.PID == obs.PIDTimeline {
			spans[e.TID]++
		}
	}
	if spans[obs.TIDGPU] == 0 || spans[obs.TIDPIM] == 0 {
		t.Fatalf("trace of %d events holds %d GPU and %d PIM spans, want both",
			tr.Len(), spans[obs.TIDGPU], spans[obs.TIDPIM])
	}
}
