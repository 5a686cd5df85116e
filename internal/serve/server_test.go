package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// newTestServer builds a started server with two toy-backed models whose
// channel demands (8 GPU + 8 PIM each) are disjoint halves of the default
// 16+16 machine, so their requests overlap in virtual time.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	for _, name := range []string{"toy-a", "toy-b"} {
		if _, err := s.Registry().Load(toySpec(name)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// inferTogether sends one request per model from its own goroutine and
// returns the responses by model. Each model batches up to two requests
// behind a 250 ms wall window, so every request is admitted while the
// first window is still open, before any lease is released, and carries
// the frontier 0.
func inferTogether(t *testing.T, s *Server, models ...string) map[string]*InferResponse {
	t.Helper()
	var wg sync.WaitGroup
	var mu sync.Mutex
	resps := make(map[string]*InferResponse)
	for _, name := range models {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			resp, err := s.Infer(context.Background(), InferRequest{Model: name})
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			resps[name] = resp
			mu.Unlock()
		}(name)
	}
	wg.Wait()
	if len(resps) != len(models) {
		t.Fatalf("%d of %d requests served", len(resps), len(models))
	}
	return resps
}

// Requests that fit disjoint machine slices overlap fully: both arrive
// at the same frontier, their [Start, End) windows intersect, and each
// observes solo latency and zero queueing, although the dispatcher
// serves one batch at a time.
func TestServerDisjointModelsOverlap(t *testing.T) {
	s := newTestServer(t, Config{MaxBatch: 2, BatchWindow: 250 * time.Millisecond})
	resps := inferTogether(t, s, "toy-a", "toy-b")
	for name, resp := range resps {
		lm, _ := s.Registry().Get(name)
		if resp.QueueCycles != 0 {
			t.Fatalf("%s queued %d cycles despite disjoint demand", name, resp.QueueCycles)
		}
		if resp.LatencyCycles != lm.Solo.DurationCycles() {
			t.Fatalf("%s latency %d, want solo %d", name, resp.LatencyCycles, lm.Solo.DurationCycles())
		}
	}
	a, b := resps["toy-a"], resps["toy-b"]
	if a.StartCycle >= b.EndCycle || b.StartCycle >= a.EndCycle {
		t.Fatalf("toy-a ran [%d,%d) and toy-b [%d,%d): disjoint slices must overlap",
			a.StartCycle, a.EndCycle, b.StartCycle, b.EndCycle)
	}
}

// Three half-machine models requested together contend: they share one
// arrival stamp, two fit side by side, and the third queues in virtual
// time until the first of them ends.
func TestServerConcurrentContendersQueue(t *testing.T) {
	s := newTestServer(t, Config{MaxBatch: 2, BatchWindow: 250 * time.Millisecond})
	if _, err := s.Registry().Load(toySpec("toy-c")); err != nil {
		t.Fatal(err)
	}
	resps := inferTogether(t, s, "toy-a", "toy-b", "toy-c")
	var queued []*InferResponse
	firstEnd := int64(-1)
	for _, resp := range resps {
		if resp.ArrivalCycle != 0 {
			t.Errorf("%s arrived at %d, want the shared frontier 0", resp.Model, resp.ArrivalCycle)
		}
		if resp.QueueCycles > 0 {
			queued = append(queued, resp)
		} else if firstEnd < 0 || resp.EndCycle < firstEnd {
			firstEnd = resp.EndCycle
		}
	}
	if len(queued) != 1 {
		t.Fatalf("%d of 3 contending requests queued, want 1: %+v", len(queued), resps)
	}
	if q := queued[0]; q.StartCycle != firstEnd || q.LeaseWaitCycles != q.QueueCycles {
		t.Fatalf("%s started at %d after %d lease-wait cycles, want the first end %d",
			q.Model, q.StartCycle, q.LeaseWaitCycles, firstEnd)
	}
}

// A request placed behind a full-machine lease waits for it in virtual
// time: queueing shows up in QueueCycles, not wall-clock.
func TestServerContentionQueuesInVirtualTime(t *testing.T) {
	s := newTestServer(t, Config{})
	const blocker = int64(100_000)
	l, err := s.sched.Place(0, Demand{GPU: 16, PIM: 16}, blocker)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.Infer(context.Background(), InferRequest{Model: "toy-a"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.QueueCycles != blocker || resp.StartCycle != blocker {
		t.Fatalf("queued %d cycles starting at %d, want %d behind the blocking lease",
			resp.QueueCycles, resp.StartCycle, blocker)
	}
	lm, _ := s.Registry().Get("toy-a")
	if want := blocker + lm.Solo.DurationCycles(); resp.LatencyCycles != want {
		t.Fatalf("latency %d, want %d", resp.LatencyCycles, want)
	}
	s.sched.Cancel(l)
}

// Same-model requests coalesce into one lease; batch members stream at the
// initiation interval instead of paying full solo latency each.
func TestServerBatchCoalesces(t *testing.T) {
	s := newTestServer(t, Config{MaxBatch: 4, BatchWindow: 250 * time.Millisecond})
	const n = 4
	var wg sync.WaitGroup
	resps := make([]*InferResponse, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := s.Infer(context.Background(), InferRequest{Model: "toy-a"})
			if err != nil {
				t.Error(err)
				return
			}
			resps[i] = resp
		}(i)
	}
	wg.Wait()
	coalesced := 0
	for _, resp := range resps {
		if resp == nil {
			t.Fatal("missing response")
		}
		if resp.BatchSize > 1 {
			coalesced++
		}
	}
	if coalesced < 2 {
		t.Fatalf("only %d of %d requests coalesced into a batch", coalesced, n)
	}
	lm, _ := s.Registry().Get("toy-a")
	for _, resp := range resps {
		if resp.BatchSize > 1 && resp.BatchIndex > 0 {
			want := resp.StartCycle + lm.Solo.DurationCycles() + lm.InitInterval*int64(resp.BatchIndex)
			if resp.EndCycle != want {
				t.Fatalf("batch member %d ends at %d, want %d (solo + %d*II)",
					resp.BatchIndex, resp.EndCycle, want, resp.BatchIndex)
			}
		}
	}
}

// Wall-clock context deadlines are honored while the request is queued.
func TestServerContextDeadline(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Infer(ctx, InferRequest{Model: "toy-a"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled context: %v", err)
	}
}

// Admission pressure under AdmitReject surfaces as ErrQueueFull once the
// bounded queue saturates.
func TestServerQueueFull(t *testing.T) {
	s, err := NewServer(Config{QueueDepth: 1, Admission: AdmitReject})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	if _, err := s.Registry().Load(toySpec("toy-a")); err != nil {
		t.Fatal(err)
	}
	// Saturate: many more concurrent requests than the queue and the
	// dispatcher hold.
	const n = 32
	var wg sync.WaitGroup
	var full, served int64
	var mu sync.Mutex
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Infer(context.Background(), InferRequest{Model: "toy-a"})
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				served++
			case errors.Is(err, ErrQueueFull):
				full++
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()
	if served+full != n {
		t.Fatalf("accounting: %d served + %d rejected != %d", served, full, n)
	}
	if served == 0 {
		t.Fatal("no request served under admission pressure")
	}
}

// A response reaches its caller only after its lease is released, so
// the completion frontier the caller reads next already covers it: work
// the caller places after the response (a frontier-stamped arrival, a
// blocker at the response's end) sees that lease as finished history.
// Completing members before the release let the caller race the
// dispatcher to the frontier.
func TestInferReturnsAfterRelease(t *testing.T) {
	s := newTestServer(t, Config{})
	for i := 0; i < 5000; i++ {
		resp, err := s.Infer(context.Background(), InferRequest{Model: "toy-a"})
		if err != nil {
			t.Fatal(err)
		}
		if f := s.Scheduler().Arrival(); f < resp.EndCycle {
			t.Fatalf("request %d: response ends at %d but the frontier is still %d", i, resp.EndCycle, f)
		}
	}
}
