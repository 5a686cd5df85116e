// Package par runs independent tasks on a bounded worker pool. It is
// the one pool in the tree: the search fans its profiling probes out on
// it, and the verify layer its independent checks. It lives apart from
// both because verify cannot import search, which imports verify.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs f(0..n-1) on up to runtime.GOMAXPROCS(0) goroutines, the
// caller's among them, and returns the first error. Once any call
// errors, no index is dispatched after it: in-flight calls finish, the
// rest of the range is abandoned. With one P (go test -cpu 1, or inside
// testing.AllocsPerRun) the calls run inline in index order. A task may
// call ForEach again: the inner caller works through its own range, so
// nested pools never wait on each other.
func ForEach(n int, f func(i int) error) error {
	return forEachN(n, runtime.GOMAXPROCS(0), f)
}

// forEachN is ForEach with an explicit worker count, so tests can
// exercise the parallel path on any machine.
func forEachN(n, workers int, f func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		next     atomic.Int64
		stop     atomic.Bool
	)
	work := func() {
		for !stop.Load() {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			if err := f(i); err != nil {
				stop.Store(true)
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
		}
	}
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return firstErr
}
