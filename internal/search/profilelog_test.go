package search

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pimflow/internal/graph"
	"pimflow/internal/models"
	"pimflow/internal/profcache"
	"pimflow/internal/runtime"
	"pimflow/internal/transform"
	"pimflow/internal/verify"
)

// profileLogFixture was written by the text-keyed profile store from
// deterministic lookups only: executing the five CNNs compiled under
// PIMFlow (each compile over a private store), the first three
// mobilenet-v2 pipelining candidates that pipeline at 2 stages, probed
// over the same store, and one key no namespace parses. Whole-search
// logs cannot serve, because the set of entries pruning leaves depends
// on worker timing.
const profileLogFixture = "testdata/profile_log.json"

// replayFixtureLookups repeats the fixture's lookups over store.
func replayFixtureLookups(t *testing.T, store *profcache.Store) {
	t.Helper()
	for _, name := range models.EvaluatedCNNs() {
		g, err := models.Build(name, models.Options{Light: true})
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions(PolicyPIMFlow)
		out, _, err := Compile(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		rt := opts.RuntimeConfig()
		rt.Profiles = store
		if _, err := runtime.Execute(out, rt); err != nil {
			t.Fatal(err)
		}
	}
	g, err := models.Build("mobilenet-v2", models.Options{Light: true})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(PolicyPIMFlow)
	opts.Profiles = store
	p := newProfiler(opts)
	probed := 0
	for _, c := range pipeCases(t, g) {
		if transform.CheckPipeline(c.x, c.cand.Nodes, 2) != nil {
			continue
		}
		if _, err := p.pipeline(c.x, c.chain, c.cand, 2); err != nil {
			t.Fatal(err)
		}
		if probed++; probed == 3 {
			return
		}
	}
	t.Fatal("mobilenet-v2 has fewer than three pipelineable candidates")
}

// TestProfileLogFixture loads the fixture, answers every one of its
// lookups from it (a miss would run a simulation, so zero misses proves
// every typed key found its parsed entry), and saves it back byte for
// byte, the unparsed key included.
func TestProfileLogFixture(t *testing.T) {
	want, err := os.ReadFile(profileLogFixture)
	if err != nil {
		t.Fatal(err)
	}
	store := profcache.New()
	loaded, err := store.Load(profileLogFixture)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 230 {
		t.Fatalf("loaded %d entries, want 230", loaded)
	}
	replayFixtureLookups(t, store)
	st := store.Stats()
	if st.Misses != 0 || st.Shared != 0 || st.Hits == 0 || st.Entries != loaded {
		t.Errorf("replaying the fixture's lookups: %+v, want hits only over %d entries", st, loaded)
	}
	path := filepath.Join(t.TempDir(), "log.json")
	if err := store.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("the fixture does not save back byte-identical")
	}
}

// TestProfileLogFixtureFromCold rebuilds the fixture's entries from a
// cold store: the same lookups, plus the unparsed key, save the
// fixture's bytes.
func TestProfileLogFixtureFromCold(t *testing.T) {
	want, err := os.ReadFile(profileLogFixture)
	if err != nil {
		t.Fatal(err)
	}
	store := profcache.New()
	replayFixtureLookups(t, store)
	// The unparsed key can only come from a file: load just that entry.
	legacy := filepath.Join(t.TempDir(), "legacy.json")
	doc := []byte(`{"version": 2, "entries": {"legacy/entry from an older key scheme": {"cycles": 7}}}`)
	if err := os.WriteFile(legacy, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := store.Load(legacy); err != nil || n != 1 {
		t.Fatalf("Load = %d, %v; want 1 entry", n, err)
	}
	path := filepath.Join(t.TempDir(), "log.json")
	if err := store.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("a cold store's entries save different bytes from the fixture")
	}
}

// TestNodeWithoutOutputsIsAnError: a graph whose Relu lost its outputs
// fails to compile and to execute with an error naming the node, where
// both used to panic; the verifier reports exactly GR-OUT-NONE.
func TestNodeWithoutOutputsIsAnError(t *testing.T) {
	build := func() *graph.Graph {
		b := graph.NewBuilder("no-outputs", 1, 8, 8, 16)
		b.Light = true
		g := b.PointwiseConv(16).Relu().PointwiseConv(8).MustFinish()
		for _, n := range g.Nodes {
			if n.Op == graph.OpRelu {
				n.Outputs = nil
			}
		}
		return g
	}
	if _, _, err := Compile(build(), DefaultOptions(PolicyPIMFlow)); err == nil || !strings.Contains(err.Error(), `"relu_2"`) {
		t.Errorf("Compile = %v, want an error naming relu_2", err)
	}
	if _, err := runtime.Execute(build(), runtime.DefaultConfig()); err == nil || !strings.Contains(err.Error(), `"relu_2"`) {
		t.Errorf("Execute = %v, want an error naming relu_2", err)
	}
	diags := verify.Graph(build())
	if len(diags) != 1 || diags[0].Rule != verify.RuleGraphOutNone {
		t.Errorf("verify.Graph = %v, want exactly [%s]", diags, verify.RuleGraphOutNone)
	}
}
