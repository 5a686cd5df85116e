package load

import (
	"context"
	"runtime"
	"testing"

	"pimflow/internal/serve"
)

// TestCollectorAutoStream pins the auto-switch policy: small replays
// keep exact records, traces at or above AutoStreamRequests stream, and
// Scenario.StreamStats forces streaming at any size.
func TestCollectorAutoStream(t *testing.T) {
	sc := toyScenario(1, 100, "poisson")
	if NewCollector(sc, 100).Streaming() {
		t.Error("small replay must collect exact records")
	}
	if !NewCollector(sc, AutoStreamRequests).Streaming() {
		t.Error("trace at the threshold must stream")
	}
	sc.StreamStats = true
	if !NewCollector(sc, 100).Streaming() {
		t.Error("StreamStats must force streaming at any size")
	}
}

// TestReplayBoundedMemoryAtMillionRequests is the satellite contract:
// a 1M-request replay auto-switches to the quantile sketch, so the
// replay holds a bounded number of latency samples instead of one
// record per served request, and the resident heap growth over the
// replay stays far below what 1M latRec records would cost.
func TestReplayBoundedMemoryAtMillionRequests(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-request replay skipped in -short mode")
	}
	const n = 1_000_000
	sc := toyScenario(17, n, "poisson")
	// Keep batching aggressive so the replay's wall time stays sane at
	// this scale; the collector behavior under test is unaffected.
	for i := range sc.Models {
		sc.Models[i].MaxBatch = 16
	}
	reqs, err := Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !NewCollector(sc, len(reqs)).Streaming() {
		t.Fatal("1M-request trace did not auto-select the streaming collector")
	}

	// An uncertified server: schedule certificates are inherently one
	// record per lease, so a certifying replay is O(n) by design and
	// would mask the collector's bound.
	adm, err := serve.ParseAdmissionPolicy(sc.Admission)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewServer(serve.Config{QueueDepth: sc.QueueDepth, Admission: adm})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	if err := LoadModels(srv, sc); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rep, err := Replay(srv, sc, reqs)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)

	if rep.Served+rep.Shed+rep.Rejected+rep.Violated+rep.Errors != n {
		t.Fatalf("accounting does not cover 1M requests: %+v", rep)
	}
	if rep.Served == 0 || rep.P50 <= 0 || rep.P99 < rep.P50 {
		t.Fatalf("degenerate streamed report: %+v", rep)
	}
	if rep.Stages != nil || rep.Attributed != nil {
		t.Fatal("streaming replay must drop the full-record sections")
	}
	// The exact path would retain ~88 bytes per served request in latRec
	// records alone (tens of MB at this scale). Allow generous slack for
	// allocator noise, but stay an order of magnitude under that.
	const heapBudget = 16 << 20
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > heapBudget {
		t.Fatalf("replay retained %d bytes of heap over a 1M-request streamed run (budget %d)", grew, heapBudget)
	}
}

// Streaming reports whether the collector holds a bounded-memory sketch
// instead of exact per-request records.
func (c *Collector) Streaming() bool { return c.stream != nil }
