package par

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestForEachNClamping exercises the worker-pool edge cases on any
// machine, including the 1-CPU fallback.
func TestForEachNClamping(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{3, 64}, // more workers than work
		{5, 0},  // non-positive workers degrade to sequential
		{5, -2},
		{0, 4}, // nothing to do
		{100, 4},
	} {
		var hits [200]atomic.Int32
		if err := forEachN(tc.n, tc.workers, func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("n=%d workers=%d: %v", tc.n, tc.workers, err)
		}
		for i := 0; i < tc.n; i++ {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("n=%d workers=%d: index %d ran %d times", tc.n, tc.workers, i, got)
			}
		}
	}
}

// TestForEachNFirstError checks error propagation and cancellation:
// once a call fails, the pool stops dispatching and the caller sees an
// error that failed (not nil, not a fabricated one).
func TestForEachNFirstError(t *testing.T) {
	boom := errors.New("boom")
	const n = 100000
	var calls atomic.Int64
	err := forEachN(n, 4, func(i int) error {
		calls.Add(1)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c := calls.Load(); c >= n {
		t.Fatalf("pool ran the entire range (%d calls) despite an early error", c)
	}

	// Sequential fallback stops immediately after the failing index.
	calls.Store(0)
	err = forEachN(n, 1, func(i int) error {
		calls.Add(1)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || calls.Load() != 4 {
		t.Fatalf("sequential: err=%v calls=%d, want boom after 4 calls", err, calls.Load())
	}
}

// TestForEachStopsOnError verifies prompt cancellation: after one call
// errors, workers stop dispatching new indices instead of draining the
// whole range (the seed behavior). The worker count is pinned so the
// parallel path runs even on single-CPU machines.
func TestForEachStopsOnError(t *testing.T) {
	const n = 10000
	var processed atomic.Int64
	boom := errors.New("boom")
	err := forEachN(n, 8, func(i int) error {
		if i == 0 {
			return boom
		}
		time.Sleep(200 * time.Microsecond)
		processed.Add(1)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if p := processed.Load(); p > n/10 {
		t.Errorf("%d of %d indices still processed after the error", p, n)
	}
}

func TestForEachCompletesAndErrorsSerial(t *testing.T) {
	var count atomic.Int64
	if err := ForEach(500, func(i int) error { count.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 500 {
		t.Errorf("processed %d, want 500", count.Load())
	}
	// Serial path (n == 1) must propagate the error too.
	boom := errors.New("boom")
	if err := ForEach(1, func(i int) error { return boom }); !errors.Is(err, boom) {
		t.Errorf("serial err = %v", err)
	}
}
