package runtime

import (
	"reflect"
	"testing"

	"pimflow/internal/codegen"
	"pimflow/internal/graph"
	"pimflow/internal/obs"
	"pimflow/internal/pim"
)

// TestGuardRailsSeeMaterializedTrace is the regression for the streaming
// switch: scheduling is streamed (no trace exists), Chrome-trace event
// recording must still see a fully materialized trace, and turning it and
// the VerifyTraces lint on must not change the simulated timing by a
// single cycle.
func TestGuardRailsSeeMaterializedTrace(t *testing.T) {
	g := pointwiseGraph(t)
	g.Nodes[0].Exec = graph.ExecHint{Mode: graph.ModeSerial, Device: graph.DevicePIM}

	plain, err := Execute(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig()
	cfg.VerifyTraces = true
	cfg.Trace = obs.NewTrace()
	guarded, err := Execute(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Nodes, guarded.Nodes) || plain.TotalCycles != guarded.TotalCycles {
		t.Fatalf("guard rails changed the schedule:\nplain   %+v\nguarded %+v", plain, guarded)
	}

	// The recorded per-channel command activity must match the
	// materialized trace command for command: same event count as the
	// trace has commands, and the same windows SimulateEvents computes.
	w, err := codegen.NodeWorkload(g, g.Nodes[0])
	if err != nil {
		t.Fatal(err)
	}
	tr, err := codegen.Generate(w, cfg.PIM, cfg.Codegen)
	if err != nil {
		t.Fatal(err)
	}
	_, events, err := pim.SimulateEvents(cfg.PIM, tr)
	if err != nil {
		t.Fatal(err)
	}
	var cmdEvents int
	for _, ev := range cfg.Trace.Events() {
		if ev.Cat == "pim-cmd" {
			cmdEvents++
		}
	}
	if cmdEvents != tr.TotalCommands() || cmdEvents != len(events) {
		t.Fatalf("recorded %d pim-cmd events, trace has %d commands (%d simulated events)",
			cmdEvents, tr.TotalCommands(), len(events))
	}
}
