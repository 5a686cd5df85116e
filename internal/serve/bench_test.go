package serve

import (
	"context"
	goruntime "runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// BenchmarkServeThroughput drives concurrent inference requests for two
// MobileNetV2 instances compiled onto disjoint halves of the machine and
// reports wall-clock requests/sec plus the p50/p99 simulated latency in
// cycles (the served distribution, including virtual queueing).
func BenchmarkServeThroughput(b *testing.B) {
	s, models := throughputServer(b)
	defer shutdownNow(s)
	b.ResetTimer()
	latencies := inferConcurrently(b, s, models, b.N)
	b.StopTimer()

	var all []int64
	for _, l := range latencies {
		all = append(all, l...)
	}
	if len(all) == 0 {
		return
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p int) int64 {
		idx := len(all) * p / 100
		if idx >= len(all) {
			idx = len(all) - 1
		}
		return all[idx]
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	b.ReportMetric(float64(pct(50)), "p50_simcycles")
	b.ReportMetric(float64(pct(99)), "p99_simcycles")
}

// TestServeThroughputAllocs bounds BenchmarkServeThroughput's
// allocations and allocated bytes per request: a live batch charges its
// model's solo schedule and applies the load-time metrics record, so
// nothing it does allocates per node or per channel.
func TestServeThroughputAllocs(t *testing.T) {
	s, models := throughputServer(t)
	defer shutdownNow(s)
	const requests = 800
	allocs := testing.AllocsPerRun(1, func() { inferConcurrently(t, s, models, requests) })
	if per := allocs / requests; per > 100 {
		t.Errorf("%.0f allocations per request, want at most 100", per)
	}
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	inferConcurrently(t, s, models, requests)
	goruntime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / requests; per > 8<<10 {
		t.Errorf("%d bytes allocated per request, want at most %d", per, 8<<10)
	}
}

// throughputServer starts a server holding two MobileNetV2 instances
// compiled onto disjoint halves of the machine and returns their names.
func throughputServer(tb testing.TB) (*Server, []string) {
	tb.Helper()
	s, err := NewServer(Config{QueueDepth: 256, MaxBatch: 4})
	if err != nil {
		tb.Fatal(err)
	}
	models := []string{"mobilenet-a", "mobilenet-b"}
	for _, name := range models {
		spec := ModelSpec{Name: name, Model: "mobilenet-v2", Policy: "PIMFlow", TotalChannels: 16, PIMChannels: 8}
		if _, err := s.Registry().Load(spec); err != nil {
			shutdownNow(s)
			tb.Fatal(err)
		}
	}
	return s, models
}

func shutdownNow(s *Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.Shutdown(ctx)
}

// inferConcurrently sends n requests from 16 clients, alternating
// between the models, and returns each client's simulated latencies.
func inferConcurrently(tb testing.TB, s *Server, models []string, n int) [][]int64 {
	const clients = 16
	var next int64
	latencies := make([][]int64, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := atomic.AddInt64(&next, 1) - 1
				if i >= int64(n) {
					return
				}
				resp, err := s.Infer(context.Background(), InferRequest{Model: models[i%int64(len(models))]})
				if err != nil {
					tb.Error(err)
					return
				}
				latencies[c] = append(latencies[c], resp.LatencyCycles)
			}
		}(c)
	}
	wg.Wait()
	return latencies
}

// BenchmarkSchedulerPlace measures one Release+Place step on a 64-deep
// queue of future leases under bursty arrivals (eight per frontier
// stamp, a mix of half- and full-machine demands) — the placement
// pattern of an overloaded server.
func BenchmarkSchedulerPlace(b *testing.B) {
	q := newDeepQueue(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.step()
	}
}
