package serve

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"

	"pimflow/internal/obs"
)

// Digests of a live server's outputs after the 40-request sequence of
// TestLiveIdentityGolden, computed when every live batch re-executed its
// model's plan: /metrics text and JSON with serve.model_load_seconds
// (wall-clock samples) masked, and the trace's simulated-time events plus
// its meta.
const (
	liveMetricsTextDigest = "13f531f5756b1f099920aa519cffe4851909dd1acb01b091628af5c60341f3df"
	liveMetricsJSONDigest = "b33528d1b1b0cf4a89327980f5b7411d112596b10b6598ecaa7f18a47fcafc54"
	liveTraceDigest       = "d43751322a76984068a10c6b577f409a8deae851b631f323db87485369a61a2d"
)

// TestLiveIdentityGolden runs one client's deterministic sequence of 40
// Infers, alternating mobilenet-v2 and resnet-50 on disjoint 16/8
// slices, with a trace and a request log attached, and pins what the
// live path publishes: every runtime.*/pim.* series, every serving
// series, each node span and merge-sync instant, and the request lanes.
func TestLiveIdentityGolden(t *testing.T) {
	tr := obs.NewTrace()
	s, err := NewServer(Config{Trace: tr, RequestLog: 64})
	if err != nil {
		t.Fatal(err)
	}
	models := []string{"mobilenet", "resnet"}
	for i, model := range []string{"mobilenet-v2", "resnet-50"} {
		spec := ModelSpec{Name: models[i], Model: model, Policy: "PIMFlow", TotalChannels: 16, PIMChannels: 8}
		if _, err := s.Registry().Load(spec); err != nil {
			shutdownNow(s)
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		if _, err := s.Infer(context.Background(), InferRequest{Model: models[i%2]}); err != nil {
			shutdownNow(s)
			t.Fatal(err)
		}
	}
	// Drained, no goroutine can still touch a gauge.
	shutdownNow(s)
	if got := s.Metrics().Counter("runtime.executions"); got != 40 {
		t.Errorf("runtime.executions = %d, want 40", got)
	}
	cats := map[string]int{}
	for _, e := range tr.Events() {
		if e.PID != obs.PIDCompile {
			cats[e.Cat]++
		}
	}
	if cats["serve.request"] != 40 || cats["merge-sync"] == 0 || cats["Conv"] == 0 {
		t.Errorf("trace categories %v: want 40 request lanes, merge-sync instants and Conv spans", cats)
	}

	text := scrape(t, s, "/metrics")
	var masked bytes.Buffer
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		if !strings.Contains(sc.Text(), "pimflow_serve_model_load_seconds") {
			masked.WriteString(sc.Text() + "\n")
		}
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(scrape(t, s, "/metrics.json"), &snap); err != nil {
		t.Fatal(err)
	}
	if _, ok := snap.Histograms["serve.model_load_seconds"]; !ok {
		t.Fatal("no serve.model_load_seconds series to mask")
	}
	delete(snap.Histograms, "serve.model_load_seconds")
	js, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ what, got, want string }{
		{"/metrics text", digest(masked.Bytes()), liveMetricsTextDigest},
		{"/metrics JSON", digest(js), liveMetricsJSONDigest},
		{"trace", simulatedTraceDigest(t, tr), liveTraceDigest},
	} {
		if c.got != c.want {
			t.Errorf("%s digest %s, want %s", c.what, c.got, c.want)
		}
	}
}

// scrape returns the server's metrics registry as a /metrics scrape
// carries it: Prometheus-style text for "/metrics", JSON for
// "/metrics.json".
func scrape(t *testing.T, s *Server, path string) []byte {
	t.Helper()
	var buf bytes.Buffer
	write := s.Metrics().WriteText
	if path == "/metrics.json" {
		write = s.Metrics().WriteJSON
	}
	if err := write(&buf); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return buf.Bytes()
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// simulatedTraceDigest digests a trace's simulated-time events (the
// PIDTimeline and PIDRequests processes, metadata included) in export
// order, followed by its meta; the wall-clock PIDCompile spans are left
// out.
func simulatedTraceDigest(t *testing.T, tr *obs.Trace) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []obs.Event    `json:"traceEvents"`
		OtherData   map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	kept := doc.TraceEvents[:0]
	for _, e := range doc.TraceEvents {
		if e.PID == obs.PIDTimeline || e.PID == obs.PIDRequests {
			kept = append(kept, e)
		}
	}
	b, err := json.Marshal(map[string]any{"events": kept, "meta": doc.OtherData})
	if err != nil {
		t.Fatal(err)
	}
	return digest(b)
}

// A traced live batch draws its model's node spans on the shared
// timeline, and no per-command channel activity: that detail belongs to
// a solo traced run, and one shared trace over every request would grow
// without bound.
func TestLiveTraceDrawsNodeSpansOnly(t *testing.T) {
	tr := obs.NewTrace()
	s := newTestServer(t, Config{Trace: tr})
	resp, err := s.Infer(context.Background(), InferRequest{Model: "toy-a"})
	if err != nil {
		t.Fatal(err)
	}
	var gpu, pim, channel int
	for _, e := range tr.Events() {
		switch {
		case e.Cat == "pim-cmd" || e.Cat == "pim-channel":
			channel++
		case e.PID != obs.PIDTimeline || e.Phase != "X":
		case e.TS < float64(resp.StartCycle)/1e3:
			t.Errorf("span %s at %v µs, before the lease start %d", e.Name, e.TS, resp.StartCycle)
		case e.TID == obs.TIDGPU:
			gpu++
		case e.TID == obs.TIDPIM:
			pim++
		}
	}
	if channel != 0 {
		t.Errorf("%d per-command channel events, want 0", channel)
	}
	if gpu == 0 || pim == 0 {
		t.Errorf("%d GPU and %d PIM node spans, want both", gpu, pim)
	}
}

// A live batch publishes its model's runtime.*/pim.* record; a replay
// batch (InferBatch) publishes none, so a replay costs lease arithmetic.
func TestOnlyLiveBatchesPublishRuntimeMetrics(t *testing.T) {
	s := newTestServer(t, Config{})
	runtimeSeries := func() (n int) {
		snap := s.Metrics().Snapshot()
		for _, keys := range [][]string{keysOf(snap.Counters), keysOf(snap.Gauges), keysOf(snap.Histograms)} {
			for _, k := range keys {
				if strings.HasPrefix(k, "runtime.") || strings.HasPrefix(k, "pim.") {
					n++
				}
			}
		}
		return n
	}
	if _, err := s.InferBatch(context.Background(), []InferRequest{{Model: "toy-a", ArrivalCycle: 10}}, BatchOptions{}); err != nil {
		t.Fatal(err)
	}
	if n := runtimeSeries(); n != 0 {
		t.Fatalf("a replay batch added %d runtime.*/pim.* series", n)
	}
	if _, err := s.Infer(context.Background(), InferRequest{Model: "toy-a"}); err != nil {
		t.Fatal(err)
	}
	if got := s.Metrics().Counter("runtime.executions"); got != 1 || runtimeSeries() == 0 {
		t.Fatalf("after one live batch: runtime.executions = %d, %d runtime.*/pim.* series", got, runtimeSeries())
	}
}

func keysOf[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}
