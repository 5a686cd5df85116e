package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"pimflow/internal/obs"
)

func newItem(model string) *item {
	return &item{req: InferRequest{Model: model}, ctx: context.Background(), reply: make(chan result, 1), enqueued: time.Now()}
}

func TestQueueRejectWhenFull(t *testing.T) {
	q := newQueue(2, AdmitReject, nil)
	if err := q.push(newItem("a")); err != nil {
		t.Fatal(err)
	}
	if err := q.push(newItem("a")); err != nil {
		t.Fatal(err)
	}
	if err := q.push(newItem("a")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third push: %v, want ErrQueueFull", err)
	}
	if q.depth() != 2 {
		t.Fatalf("depth %d", q.depth())
	}
}

func TestQueueShedOldest(t *testing.T) {
	q := newQueue(2, AdmitShedOldest, nil)
	first, second, third := newItem("a"), newItem("b"), newItem("c")
	for _, it := range []*item{first, second, third} {
		if err := q.push(it); err != nil {
			t.Fatal(err)
		}
	}
	// The oldest must have been completed with ErrShed.
	select {
	case res := <-first.reply:
		if !errors.Is(res.err, ErrShed) {
			t.Fatalf("shed error %v", res.err)
		}
	default:
		t.Fatal("oldest item was not shed")
	}
	// Remaining order: second, third.
	it, ok := q.pop()
	if !ok || it != second {
		t.Fatal("head after shed is not the second item")
	}
	it, ok = q.pop()
	if !ok || it != third {
		t.Fatal("tail after shed is not the newest item")
	}
}

func TestQueueBlockUnblocksOnPop(t *testing.T) {
	q := newQueue(1, AdmitBlock, nil)
	if err := q.push(newItem("a")); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- q.push(newItem("b")) }()
	select {
	case err := <-done:
		t.Fatalf("blocked push returned early: %v", err)
	case <-time.After(10 * time.Millisecond):
	}
	if _, ok := q.pop(); !ok {
		t.Fatal("pop failed")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("unblocked push: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("push did not unblock after pop freed space")
	}
}

func TestQueueBlockHonorsContext(t *testing.T) {
	q := newQueue(1, AdmitBlock, nil)
	if err := q.push(newItem("a")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	it := newItem("b")
	it.ctx = ctx
	if err := q.push(it); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("push under expired context: %v", err)
	}
}

func TestQueueCloseDrains(t *testing.T) {
	q := newQueue(4, AdmitReject, nil)
	for i := 0; i < 3; i++ {
		if err := q.push(newItem("a")); err != nil {
			t.Fatal(err)
		}
	}
	q.close()
	if err := q.push(newItem("late")); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-close push: %v, want ErrDraining", err)
	}
	for i := 0; i < 3; i++ {
		if _, ok := q.pop(); !ok {
			t.Fatalf("pop %d failed during drain", i)
		}
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop succeeded on a closed empty queue")
	}
}

// The queue-depth gauge must be published under the queue lock: a gauge
// set after the unlock can interleave with a concurrent pop's set and
// park on a stale value. Hammer push/pop from many goroutines and check
// the gauge matches the real depth at the end (run under -race too).
func TestQueueDepthGaugePublishedUnderLock(t *testing.T) {
	m := obs.NewMetrics()
	q := newQueue(1024, AdmitReject, m)
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if err := q.push(newItem("a")); err != nil {
					t.Error(err)
					return
				}
				if i%2 == 0 {
					if _, ok := q.tryPop(); !ok {
						t.Error("tryPop on non-empty queue failed")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if got, want := m.Gauge("serve.queue_depth"), float64(q.depth()); got != want {
		t.Fatalf("queue_depth gauge %v, real depth %v", got, want)
	}
}

// Requests whose context ended while queued must be completed at pop time
// and never returned: a dead request must not occupy a batch slot.
func TestQueuePopSkipsExpired(t *testing.T) {
	q := newQueue(8, AdmitReject, nil)
	live1, dead, live2 := newItem("a"), newItem("a"), newItem("a")
	ctx, cancel := context.WithCancel(context.Background())
	dead.ctx = ctx
	for _, it := range []*item{live1, dead, live2} {
		if err := q.push(it); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	if it, ok := q.pop(); !ok || it != live1 {
		t.Fatal("first pop should return the first live item")
	}
	if it, ok := q.pop(); !ok || it != live2 {
		t.Fatal("second pop must skip the canceled item")
	}
	select {
	case res := <-dead.reply:
		if !errors.Is(res.err, context.Canceled) {
			t.Fatalf("expired item completed with %v, want context.Canceled", res.err)
		}
	default:
		t.Fatal("expired item was not completed at pop time")
	}
}

// Under AdmitShedOldest a canceled queued request is dead weight and must
// be the shed victim before any live request.
func TestQueueShedPrefersCanceled(t *testing.T) {
	q := newQueue(2, AdmitShedOldest, nil)
	oldest, dead := newItem("a"), newItem("b")
	ctx, cancel := context.WithCancel(context.Background())
	dead.ctx = ctx
	for _, it := range []*item{oldest, dead} {
		if err := q.push(it); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	if err := q.push(newItem("c")); err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-dead.reply:
		if !errors.Is(res.err, ErrShed) {
			t.Fatalf("canceled item finished with %v, want ErrShed", res.err)
		}
	default:
		t.Fatal("canceled item was not the shed victim")
	}
	select {
	case res := <-oldest.reply:
		t.Fatalf("oldest live item was shed (%v) despite a canceled candidate", res.err)
	default:
	}
}

// Under AdmitShedOldest the victim among live requests is the SLO-bearing
// one most likely to miss its virtual deadline, not blindly the oldest.
func TestQueueShedPrefersPredictedMisser(t *testing.T) {
	q := newQueue(3, AdmitShedOldest, nil)
	sloItem := func(model string, service, deadline int64) *item {
		it := newItem(model)
		it.service, it.slo = service, deadline
		return it
	}
	oldest := sloItem("a", 100, 10_000) // meets: 100 <= 10000
	hopeless := sloItem("b", 100, 150)  // misses: 100+100 > 150
	healthy := sloItem("c", 100, 10_000)
	for _, it := range []*item{oldest, hopeless, healthy} {
		if err := q.push(it); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.push(sloItem("d", 100, 10_000)); err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-hopeless.reply:
		if !errors.Is(res.err, ErrShed) {
			t.Fatalf("predicted misser finished with %v, want ErrShed", res.err)
		}
	default:
		t.Fatal("predicted SLO misser was not the shed victim")
	}
	select {
	case res := <-oldest.reply:
		t.Fatalf("oldest item was shed (%v) despite a predicted misser behind it", res.err)
	default:
	}
}

// When the incoming request itself is the most hopeless candidate, the
// queue refuses it with ErrShed instead of displacing queued work.
func TestQueueShedRefusesHopelessArrival(t *testing.T) {
	q := newQueue(2, AdmitShedOldest, nil)
	sloItem := func(model string, service, deadline int64) *item {
		it := newItem(model)
		it.service, it.slo = service, deadline
		return it
	}
	a, b := sloItem("a", 100, 10_000), sloItem("b", 100, 10_000)
	for _, it := range []*item{a, b} {
		if err := q.push(it); err != nil {
			t.Fatal(err)
		}
	}
	// Incoming has 200 cycles of backlog ahead plus 100 of its own against
	// a 150-cycle deadline: the worst predicted miss in the queue.
	if err := q.push(sloItem("c", 100, 150)); !errors.Is(err, ErrShed) {
		t.Fatalf("hopeless arrival admitted: %v, want ErrShed", err)
	}
	if q.depth() != 2 {
		t.Fatalf("depth %d after refused arrival, want 2", q.depth())
	}
	select {
	case res := <-a.reply:
		t.Fatalf("queued item displaced (%v) by a hopeless arrival", res.err)
	default:
	}
}

// pop removes the queue head, blocking until an item arrives. It returns
// ok == false only once the queue is closed and fully drained.
func (q *queue) pop() (*item, bool) {
	it, ok, _ := q.popUntil(nil)
	return it, ok
}
