package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"pimflow/internal/verify"
)

// A batch member other than the last that misses its virtual deadline
// drops out of the placement; InferBatch must still return, with every
// outcome in request order. process compacts the batch it is handed, so
// reading outcomes back from that slice once waited on the last member
// twice and never returned.
func TestInferBatchMidBatchViolationReturns(t *testing.T) {
	s := newTestServer(t, Config{MaxBatch: 4, Certify: true})
	reqs := []InferRequest{
		{Model: "toy-a", ArrivalCycle: 100},
		{Model: "toy-a", ArrivalCycle: 100, DeadlineCycles: 1},
		{Model: "toy-a", ArrivalCycle: 100},
	}
	type returned struct {
		outs []InferOutcome
		err  error
	}
	done := make(chan returned, 1)
	go func() {
		outs, err := s.InferBatch(context.Background(), reqs, BatchOptions{})
		done <- returned{outs, err}
	}()
	var res returned
	select {
	case res = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("InferBatch did not return after a mid-batch deadline violation")
	}
	if res.err != nil {
		t.Fatal(res.err)
	}
	outs := res.outs
	if len(outs) != len(reqs) {
		t.Fatalf("%d outcomes for %d requests", len(outs), len(reqs))
	}
	if !errors.Is(outs[1].Err, ErrDeadlineViolation) {
		t.Fatalf("outcome 1 = %+v, want ErrDeadlineViolation", outs[1])
	}
	for i, want := range map[int]int{0: 0, 2: 1} {
		o := outs[i]
		if o.Err != nil || o.Resp == nil {
			t.Fatalf("outcome %d not served: %v", i, o.Err)
		}
		if o.Resp.BatchIndex != want || o.Resp.BatchSize != 2 {
			t.Errorf("outcome %d at batch index %d of %d, want %d of 2", i, o.Resp.BatchIndex, o.Resp.BatchSize, want)
		}
	}
	if diags := verify.Schedule(s.Certificate()); len(diags) > 0 {
		t.Fatal(verify.AsError(diags))
	}
}

// InferBatch's cost on the replay path: a constant number of objects per
// batch (the item, pointer, response and outcome slices) and nothing per
// member — no reply channel, no wall stamp, no per-member response.
func TestInferBatchAllocsPerBatch(t *testing.T) {
	s := newTestServer(t, Config{})
	const perBatch = 4
	arrival := int64(0)
	for _, n := range []int{1, 8} {
		reqs := make([]InferRequest, n)
		allocs := testing.AllocsPerRun(200, func() {
			arrival += 1_000_000
			for i := range reqs {
				reqs[i] = InferRequest{Model: "toy-a", ArrivalCycle: arrival}
			}
			outs, err := s.InferBatch(context.Background(), reqs, BatchOptions{})
			if err != nil || outs[n-1].Err != nil {
				t.Fatal(err, outs[n-1].Err)
			}
		})
		if allocs > perBatch {
			t.Errorf("batch of %d allocates %v objects, want at most %d", n, allocs, perBatch)
		}
	}
}
