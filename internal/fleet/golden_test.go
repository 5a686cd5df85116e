package fleet_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"pimflow/internal/fleet"
	"pimflow/internal/load"
)

// toyGraphScenario is two machines under bursty toy traffic (seed 3,
// 30 000 requests, toy-gold on both machines) where two more traffic
// entries route through graphs: a sequence whose second step is a
// weighted splitter, and a two-branch ensemble.
func toyGraphScenario(admission string) fleet.Scenario {
	sc := toyFleetScenario(3, 30_000, "bursty", 2, map[string]int{"toy-gold": 2})
	sc.Admission = admission
	sc.Models = append(sc.Models, load.ModelLoad{Name: "pipeline"}, load.ModelLoad{Name: "panel"})
	sc.Graphs = []fleet.Graph{
		{Name: "pipeline", Root: "root", Nodes: []fleet.GraphNode{
			{Name: "root", Type: "sequence", Steps: []fleet.GraphStep{{Model: "toy-bronze"}, {Node: "pick"}}},
			{Name: "pick", Type: "splitter", Steps: []fleet.GraphStep{
				{Model: "toy-gold", Weight: 3}, {Model: "toy-bronze", Weight: 1},
			}},
		}},
		{Name: "panel", Root: "root", Nodes: []fleet.GraphNode{
			{Name: "root", Type: "ensemble", Steps: []fleet.GraphStep{{Model: "toy-gold"}, {Model: "toy-bronze"}}},
		}},
	}
	return sc
}

// TestFleetReplayGolden pins fleet.Replay on the benchmark's fleet-graph
// scenario and on the two-machine toy graph fleet under both open-loop
// admission policies: the SHA-256 of the JSON report (wall-clock fields
// zeroed) followed by the JSON fleet certificate — placements, hops with
// their gating, and every machine's schedule. The digests were computed
// on the per-machine replay loop serve.VirtualQueue replaced, so a moved
// digest is a change of replay behaviour.
func TestFleetReplayGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		sc   fleet.Scenario
		want string
	}{
		{"fleet-graph", graphScenario(20_000), "23a678881e7aa5907c3792dce4562993ac89904f3f8d1a34689709f74372cdce"},
		{"toy-graphs/shed-oldest", toyGraphScenario("shed-oldest"), "24bf7a3ceb2508b1659b0843932dd35cb575de43b2738435771595f2092c483c"},
		{"toy-graphs/reject", toyGraphScenario("reject"), "15cd3a69d0b26546137d735b523795660107e6abb20619801063380e87c76607"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reqs, err := load.Generate(tc.sc.Scenario)
			if err != nil {
				t.Fatal(err)
			}
			f, rep := runFleet(t, tc.sc, reqs)
			h := sha256.New()
			for _, v := range []any{stripWall(rep), f.Certificate()} {
				b, err := json.Marshal(v)
				if err != nil {
					t.Fatal(err)
				}
				h.Write(b)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Fatalf("replay digest %s, want %s", got, tc.want)
			}
		})
	}
}
