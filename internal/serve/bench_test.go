package serve

import (
	"context"
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
	s, err := NewServer(Config{Workers: 8, QueueDepth: 256, MaxBatch: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	for _, name := range []string{"mobilenet-a", "mobilenet-b"} {
		spec := ModelSpec{Name: name, Model: "mobilenet-v2", Policy: "PIMFlow", TotalChannels: 16, PIMChannels: 8}
		if _, err := s.Registry().Load(spec); err != nil {
			b.Fatal(err)
		}
	}
	models := []string{"mobilenet-a", "mobilenet-b"}

	const clients = 16
	var next int64
	latencies := make([][]int64, clients)
	b.ResetTimer()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := atomic.AddInt64(&next, 1) - 1
				if i >= int64(b.N) {
					return
				}
				resp, err := s.Infer(context.Background(), InferRequest{Model: models[i%2]})
				if err != nil {
					b.Error(err)
					return
				}
				latencies[c] = append(latencies[c], resp.LatencyCycles)
			}
		}(c)
	}
	wg.Wait()
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
