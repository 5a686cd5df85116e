package runtime_test

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"sync"
	"testing"

	"pimflow/internal/graph"
	"pimflow/internal/models"
	"pimflow/internal/obs"
	"pimflow/internal/profcache"
	"pimflow/internal/runtime"
	"pimflow/internal/search"
)

// Digests of the registry's WriteText and WriteJSON bytes after the
// execution sequence below, computed when every update was name-keyed.
const (
	metricsTextDigest = "1eaf465d6ac03c3b469d573addf8303d32cff4b54be44094476fad15a32fa59c"
	metricsJSONDigest = "99a75d90988ba33265ff8d442b507f55c4d4950e186179625da9634b30659521"
)

// TestExecuteMetricsGolden runs one goroutine's sequence of ExecuteAt
// calls over one registry — two PIMFlow CNNs, alternating, the first
// without a profile store and the rest over one — and pins the exported
// metrics byte for byte: resolving handles once per registry must
// change no series, sample or order.
func TestExecuteMetricsGolden(t *testing.T) {
	m := obs.NewMetrics()
	var graphs []*graph.Graph
	var rts []runtime.Config
	for _, name := range []string{"mobilenet-v2", "resnet-50"} {
		g, err := models.Build(name, models.Options{Light: true})
		if err != nil {
			t.Fatal(err)
		}
		opts := search.DefaultOptions(search.PolicyPIMFlow)
		out, _, err := search.Compile(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		rt := opts.RuntimeConfig()
		rt.Metrics = m
		graphs, rts = append(graphs, out), append(rts, rt)
	}
	store := profcache.New()
	for i, start := range []int64{0, 1000, 5_000_000, 7} {
		rt := rts[i%2]
		if i > 0 {
			rt.Profiles = store
		}
		if _, err := runtime.ExecuteAt(graphs[i%2], rt, start); err != nil {
			t.Fatal(err)
		}
	}
	th, jh := sha256.New(), sha256.New()
	if err := m.WriteText(th); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteJSON(jh); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(th.Sum(nil)); got != metricsTextDigest {
		t.Errorf("WriteText digest %s, want %s", got, metricsTextDigest)
	}
	if got := hex.EncodeToString(jh.Sum(nil)); got != metricsJSONDigest {
		t.Errorf("WriteJSON digest %s, want %s", got, metricsJSONDigest)
	}
}

// TestExecuteMetricsWidenChannels executes over one registry under an
// 8-channel and then a 16-channel PIM config: the per-channel handles
// grow to the wider config, and channels 8..15 count only the second
// execution.
func TestExecuteMetricsWidenChannels(t *testing.T) {
	g, err := models.Build("mobilenet-v2", models.Options{Light: true})
	if err != nil {
		t.Fatal(err)
	}
	exec := func(m *obs.Metrics, pimChannels int) {
		opts := search.DefaultOptions(search.PolicyPIMFlow).WithResources(32, pimChannels)
		out, _, err := search.Compile(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		rt := opts.RuntimeConfig()
		rt.Metrics = m
		if _, err := runtime.Execute(out, rt); err != nil {
			t.Fatal(err)
		}
	}
	busy := func(m *obs.Metrics, ch string) int64 {
		return m.Counter(obs.LabeledKey("pim.channel_busy_cycles", "channel", ch))
	}
	both, wide := obs.NewMetrics(), obs.NewMetrics()
	exec(both, 8)
	if busy(both, "07") == 0 || busy(both, "08") != 0 {
		t.Fatalf("8 channels: channel 07 = %d, 08 = %d", busy(both, "07"), busy(both, "08"))
	}
	exec(both, 16)
	exec(wide, 16)
	for _, ch := range []string{"08", "15"} {
		if got, want := busy(both, ch), busy(wide, ch); got != want || got == 0 {
			t.Errorf("channel %s: %d busy cycles, want %d", ch, got, want)
		}
	}
	if busy(both, "00") <= busy(wide, "00") {
		t.Error("channel 00 did not add both executions")
	}
}

// TestExecuteMetricsConcurrent executes 8- and 16-channel plans from
// eight goroutines over one registry and one profile store, so the
// handle set, its channel growth and the interned key suffixes are
// reached concurrently: every counter must match a sequential run.
func TestExecuteMetricsConcurrent(t *testing.T) {
	g, err := models.Build("mobilenet-v2", models.Options{Light: true})
	if err != nil {
		t.Fatal(err)
	}
	var graphs []*graph.Graph
	var rts []runtime.Config
	for _, ch := range []int{8, 16} {
		opts := search.DefaultOptions(search.PolicyPIMFlow).WithResources(32, ch)
		out, _, err := search.Compile(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		graphs, rts = append(graphs, out), append(rts, opts.RuntimeConfig())
	}
	run := func(m *obs.Metrics, concurrent bool) {
		store := profcache.New()
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			rt := rts[i%2]
			rt.Metrics, rt.Profiles = m, store
			exec := func() {
				if _, err := runtime.ExecuteAt(graphs[i%2], rt, int64(i)); err != nil {
					t.Error(err)
				}
			}
			if !concurrent {
				exec()
				continue
			}
			wg.Add(1)
			go func() { defer wg.Done(); exec() }()
		}
		wg.Wait()
	}
	seq, par := obs.NewMetrics(), obs.NewMetrics()
	run(seq, false)
	run(par, true)
	want, got := seq.Snapshot(), par.Snapshot()
	if !reflect.DeepEqual(got.Counters, want.Counters) {
		t.Errorf("concurrent counters %v, want %v", got.Counters, want.Counters)
	}
	for name, h := range want.Histograms {
		if got.Histograms[name].Count != h.Count {
			t.Errorf("%s: %d samples, want %d", name, got.Histograms[name].Count, h.Count)
		}
	}
}
