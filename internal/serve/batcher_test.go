package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"pimflow/internal/obs"
)

// Shutdown must never wait out an open batch window: a pending batch
// flushes immediately when the drain begins. With a 30s window and one
// queued request, drain has to complete in a fraction of that.
func TestServerDrainNotExtendedByBatchWindow(t *testing.T) {
	s, err := NewServer(Config{MaxBatch: 8, BatchWindow: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Registry().Load(toySpec("toy-a")); err != nil {
		t.Fatal(err)
	}
	p, err := s.Submit(context.Background(), InferRequest{Model: "toy-a"})
	if err != nil {
		t.Fatal(err)
	}
	// Let the dispatcher route the request into an open windowed batch.
	time.Sleep(50 * time.Millisecond)
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain blocked on the batch window: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("drain took %v with a 30s batch window armed", elapsed)
	}
	resp, err := p.Wait(context.Background())
	if err != nil {
		t.Fatalf("queued request lost in drain: %v", err)
	}
	if resp.BatchSize != 1 {
		t.Fatalf("drain-flushed batch size %d, want 1", resp.BatchSize)
	}
}

// Shutdown of an idle server with batching configured is immediate: no
// window, timer, or sleep sits on the drain path.
func TestServerDrainIdleImmediate(t *testing.T) {
	s, err := NewServer(Config{MaxBatch: 8, BatchWindow: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("idle drain took %v", elapsed)
	}
}

// Requests whose context died before processing must not consume batch
// slots or shrink anyone's lease: process filters them up front, so the
// batch the survivors see is sized by live members only.
func TestProcessSkipsCanceledItems(t *testing.T) {
	s := newTestServer(t, Config{})
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	mk := func(ctx context.Context) *item {
		return &item{req: InferRequest{Model: "toy-a"}, ctx: ctx, reply: make(chan result, 1), enqueued: time.Now()}
	}
	// process compacts the batch slice in place, so keep direct
	// references to the members rather than reading back through it.
	live1, dead, live2 := mk(context.Background()), mk(canceled), mk(context.Background())
	lm, err := s.registry.Get("toy-a")
	if err != nil {
		t.Fatal(err)
	}
	s.process([]*item{live1, dead, live2}, lm, false, nil)
	for i, it := range []*item{live1, dead, live2} {
		res := <-it.reply
		if i == 1 {
			if !errors.Is(res.err, context.Canceled) {
				t.Fatalf("canceled item finished with %v", res.err)
			}
			continue
		}
		if res.err != nil {
			t.Fatalf("live item %d: %v", i, res.err)
		}
		if res.resp.BatchSize != 2 {
			t.Fatalf("live item %d sees batch size %d, want 2 (dead member excluded)", i, res.resp.BatchSize)
		}
	}
}

// Released leases are retained as placement history until the arrival
// watermark passes them: a pinned arrival earlier than completed work
// must still queue behind that work's busy window.
func TestSchedulerRetainsReleasedLeases(t *testing.T) {
	sched := NewScheduler(DefaultMachine(), nil)
	full := Demand{GPU: 16, PIM: 16}
	l1, err := sched.Place(1000, full, 100)
	if err != nil {
		t.Fatal(err)
	}
	sched.Release(l1)
	// Same pinned arrival again: the historical window [1000,1100) is
	// still occupied, so the new lease starts at 1100.
	l2, err := sched.Place(1000, full, 100)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Start != 1100 {
		t.Fatalf("placement ignored retained lease: start %d, want 1100", l2.Start)
	}
	sched.Release(l2)
	if st := sched.Stats(); st.Retained != 2 {
		t.Fatalf("retained %d, want 2", st.Retained)
	}
	// Advancing the watermark past the retained windows prunes them.
	l3, err := sched.Place(5000, Demand{GPU: 1}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if st := sched.Stats(); st.Retained != 0 || st.Pruned != 2 {
		t.Fatalf("after watermark advance: %+v", st)
	}
	sched.Release(l3)
}

// InferBatch is deterministic: two servers fed the identical pinned-
// arrival batches report identical virtual-time results.
func TestInferBatchDeterministic(t *testing.T) {
	run := func() []InferResponse {
		s := newTestServer(t, Config{})
		batches := [][]InferRequest{
			{{Model: "toy-a", ArrivalCycle: 1}, {Model: "toy-a", ArrivalCycle: 5}},
			{{Model: "toy-b", ArrivalCycle: 7}},
			{{Model: "toy-a", ArrivalCycle: 9}, {Model: "toy-a", ArrivalCycle: 12}, {Model: "toy-a", ArrivalCycle: 20}},
		}
		var out []InferResponse
		for _, b := range batches {
			outs, err := s.InferBatch(context.Background(), b, BatchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range outs {
				if o.Err != nil {
					t.Fatal(o.Err)
				}
				out = append(out, *o.Resp)
			}
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("response %d differs across identical runs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

// A model loaded into an SLO class reports its class and counts misses
// when contention pushes completion past the class target.
func TestServerSLOMissAccounting(t *testing.T) {
	s, err := NewServer(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	spec := toySpec("toy-gold")
	spec.SLO = "gold"
	lm, err := s.Registry().Load(spec)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * lm.Solo.DurationCycles(); lm.SLOTarget != want {
		t.Fatalf("gold target %d, want 2x solo %d", lm.SLOTarget, want)
	}
	// Uncontended: within target.
	resp, err := s.Infer(context.Background(), InferRequest{Model: "toy-gold"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.SLOClass != "gold" || resp.SLOMiss {
		t.Fatalf("uncontended response: %+v", resp)
	}
	// A full-machine blocker of 10x solo forces a miss.
	if _, err := s.Scheduler().Place(resp.EndCycle, Demand{GPU: 16, PIM: 16}, 10*lm.Solo.DurationCycles()); err != nil {
		t.Fatal(err)
	}
	resp, err = s.Infer(context.Background(), InferRequest{Model: "toy-gold"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.SLOMiss {
		t.Fatalf("latency %d vs target %d: expected an SLO miss", resp.LatencyCycles, lm.SLOTarget)
	}
	if got := s.Metrics().Counter("serve.slo_miss"); got != 1 {
		t.Fatalf("serve.slo_miss %d", got)
	}
	if got := s.Metrics().Counter(obs.LabeledKey("serve.slo_miss", "class", "gold")); got != 1 {
		t.Fatalf("serve.slo_miss.gold %d", got)
	}
	// Unknown classes fail the load up front.
	bad := toySpec("toy-bad")
	bad.SLO = "platinum"
	if _, err := s.Registry().Load(bad); err == nil {
		t.Fatal("unknown SLO class must fail the load")
	}
}

func TestEffectiveDeadline(t *testing.T) {
	for _, c := range []struct{ explicit, slo, want int64 }{
		{0, 0, 0},
		{100, 0, 100},
		{0, 200, 200},
		{100, 200, 100},
		{300, 200, 200},
	} {
		if got := effectiveDeadline(c.explicit, c.slo); got != c.want {
			t.Errorf("effectiveDeadline(%d, %d) = %d, want %d", c.explicit, c.slo, got, c.want)
		}
	}
}
