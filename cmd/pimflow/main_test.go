package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestRunModes(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name            string
		mode, kind, net string
		policy          string
		gpuOnly         bool
	}{
		{"profile split", "profile", "split", "toy", "PIMFlow", false},
		{"profile pipeline", "profile", "pipeline", "toy", "PIMFlow", false},
		{"solve", "solve", "split", "toy", "PIMFlow", false},
		{"run baseline", "run", "split", "toy", "PIMFlow", true},
		{"run pimflow", "run", "split", "toy", "PIMFlow", false},
		{"run newton+", "run", "split", "toy", "Newton+", false},
		{"stats", "stats", "split", "toy", "PIMFlow", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := run(c.mode, c.kind, c.net, c.policy, dir, c.gpuOnly, 16, ""); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		})
	}
	// Plan metadata was persisted.
	if _, err := os.Stat(filepath.Join(dir, "toy.PIMFlow.plan.json")); err != nil {
		t.Fatalf("plan file missing: %v", err)
	}
}

func TestPlanReuse(t *testing.T) {
	dir := t.TempDir()
	if err := run("solve", "split", "toy", "PIMFlow", dir, false, 16, ""); err != nil {
		t.Fatal(err)
	}
	plan := loadPlan(dir, "toy", "PIMFlow", 16)
	if plan == nil {
		t.Fatal("persisted plan not loadable")
	}
	if len(plan.Decisions) == 0 {
		t.Fatal("plan lost decisions in JSON round trip")
	}
	// Mismatched channel split must not reuse.
	if loadPlan(dir, "toy", "PIMFlow", 8) != nil {
		t.Fatal("plan reused despite different channel split")
	}
	if loadPlan(dir, "toy", "Newton+", 16) != nil {
		t.Fatal("plan reused for a different policy")
	}
	// Run must succeed on the reused path.
	if err := run("run", "split", "toy", "PIMFlow", dir, false, 16, ""); err != nil {
		t.Fatal(err)
	}
}

// TestRunTimeline: the -timeline file is the simulated timeline that
// Report.Draw puts in a -trace file: both device tracks by name, node
// spans on each, and a merge-sync instant where MD-DP halves join.
func TestRunTimeline(t *testing.T) {
	dir := t.TempDir()
	tl := filepath.Join(dir, "tl.json")
	if err := run("run", "split", "toy", "PIMFlow", dir, false, 16, tl); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tl)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name, Cat string
			Phase     string `json:"ph"`
			TID       int
			Dur       float64
			Args      struct{ Name string }
		}
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	tracks, spans, syncs := map[string]bool{}, map[int]int{}, 0
	for _, e := range doc.TraceEvents {
		switch {
		case e.Phase == "M" && e.Name == "thread_name":
			tracks[e.Args.Name] = true
		case e.Phase == "X" && e.Dur > 0:
			spans[e.TID]++
		case e.Phase == "i" && e.Cat == "merge-sync":
			syncs++
		}
	}
	if !tracks["GPU stream"] || !tracks["PIM command processor"] || spans[0] == 0 || spans[1] == 0 || syncs == 0 {
		t.Fatalf("timeline has tracks %v, spans per track %v and %d merge-sync instants", tracks, spans, syncs)
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	if err := run("bogus", "split", "toy", "PIMFlow", dir, false, 16, ""); err == nil {
		t.Error("unknown mode accepted")
	}
	if err := run("run", "split", "nope", "PIMFlow", dir, false, 16, ""); err == nil {
		t.Error("unknown model accepted")
	}
	if err := run("run", "split", "toy", "FancyPolicy", dir, false, 16, ""); err == nil {
		t.Error("unknown policy accepted")
	}
	if err := run("profile", "bogus", "toy", "PIMFlow", dir, false, 16, ""); err == nil {
		t.Error("unknown profile kind accepted")
	}
}

func TestParsePolicy(t *testing.T) {
	for _, name := range []string{"Baseline", "Newton+", "Newton++", "PIMFlow-md", "PIMFlow-pl", "PIMFlow"} {
		if _, err := parsePolicy(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := parsePolicy("x"); err == nil {
		t.Error("unknown policy parsed")
	}
}

func TestAnalyzeMode(t *testing.T) {
	if err := run("analyze", "split", "toy", "PIMFlow", t.TempDir(), false, 16, ""); err != nil {
		t.Fatal(err)
	}
}
