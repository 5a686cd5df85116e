package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pimflow/internal/obs"
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

func doJSON(t *testing.T, client *http.Client, method, url string, body any) (int, map[string]any) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil && !errors.Is(err, io.EOF) {
		t.Fatalf("%s %s: decode: %v", method, url, err)
	}
	return resp.StatusCode, out
}

func TestServerHTTPLifecycle(t *testing.T) {
	s, err := NewServer(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := ts.Client()

	// Healthy and empty.
	code, body := doJSON(t, c, http.MethodGet, ts.URL+"/healthz", nil)
	if code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz %d %v", code, body)
	}
	code, body = doJSON(t, c, http.MethodGet, ts.URL+"/v1/models", nil)
	if code != http.StatusOK || len(body["models"].([]any)) != 0 {
		t.Fatalf("empty list %d %v", code, body)
	}

	// Infer against a model that is not loaded.
	code, _ = doJSON(t, c, http.MethodPost, ts.URL+"/v1/models/ghost/infer", nil)
	if code != http.StatusNotFound {
		t.Fatalf("infer on unloaded model: %d", code)
	}

	// Load two models on disjoint machine halves.
	for _, name := range []string{"toy-a", "toy-b"} {
		spec := toySpec(name)
		code, body = doJSON(t, c, http.MethodPost, ts.URL+"/v1/models/"+name, spec)
		if code != http.StatusCreated {
			t.Fatalf("load %s: %d %v", name, code, body)
		}
		if body["soloCycles"].(float64) <= 0 {
			t.Fatalf("load %s: no solo report: %v", name, body)
		}
	}
	code, _ = doJSON(t, c, http.MethodPost, ts.URL+"/v1/models/toy-a", toySpec("toy-a"))
	if code != http.StatusConflict {
		t.Fatalf("double load: %d", code)
	}
	code, body = doJSON(t, c, http.MethodGet, ts.URL+"/v1/models", nil)
	if code != http.StatusOK || len(body["models"].([]any)) != 2 {
		t.Fatalf("list after loads: %d %v", code, body)
	}

	// One inference on each, concurrently served.
	for _, name := range []string{"toy-a", "toy-b"} {
		code, body = doJSON(t, c, http.MethodPost, ts.URL+"/v1/models/"+name+"/infer", nil)
		if code != http.StatusOK {
			t.Fatalf("infer %s: %d %v", name, code, body)
		}
		if body["latencyCycles"].(float64) <= 0 {
			t.Fatalf("infer %s: zero latency: %v", name, body)
		}
	}

	// Metrics text dump carries the serving counters.
	resp, err := c.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	// 3 requests total: the ghost probe plus the two served inferences.
	for _, want := range []string{"pimflow_serve_requests 3", "pimflow_serve_responses 2", "pimflow_serve_latency_cycles_count 2"} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("metrics dump missing %q:\n%s", want, text)
		}
	}

	// Unload.
	code, _ = doJSON(t, c, http.MethodDelete, ts.URL+"/v1/models/toy-b", nil)
	if code != http.StatusOK {
		t.Fatalf("unload: %d", code)
	}
	code, _ = doJSON(t, c, http.MethodPost, ts.URL+"/v1/models/toy-b/infer", nil)
	if code != http.StatusNotFound {
		t.Fatalf("infer after unload: %d", code)
	}
}

// A virtual-cycle deadline smaller than the solo latency can never be met;
// the request must fail as a deadline violation (HTTP 504) without
// executing.
func TestServerDeadlineViolation(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/models/toy-a/infer",
		inferBody{DeadlineCycles: 1})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("impossible deadline: %d %v", code, body)
	}
	if body["deadlineViolation"] != true {
		t.Fatalf("error body does not flag the deadline violation: %v", body)
	}
	if got := s.Metrics().Counter("serve.deadline_violations"); got != 1 {
		t.Fatalf("deadline_violations counter %d", got)
	}
	// A violation must not hold a lease or advance the virtual frontier.
	if s.Scheduler().InFlight() != 0 || s.Scheduler().Arrival() != 0 {
		t.Fatalf("violated request left scheduler state: %d in flight, frontier %d",
			s.Scheduler().InFlight(), s.Scheduler().Arrival())
	}

	// A generous deadline succeeds.
	lm, _ := s.Registry().Get("toy-a")
	code, body = doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/models/toy-a/infer",
		inferBody{DeadlineCycles: 10 * lm.Solo.DurationCycles()})
	if code != http.StatusOK {
		t.Fatalf("feasible deadline: %d %v", code, body)
	}
}

// Requests that fit disjoint machine slices overlap fully: each observes
// solo latency and zero queueing regardless of concurrency.
func TestServerDisjointModelsOverlap(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	var wg sync.WaitGroup
	resps := make(map[string]*InferResponse)
	var mu sync.Mutex
	for _, name := range []string{"toy-a", "toy-b"} {
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
	for name, resp := range resps {
		lm, _ := s.Registry().Get(name)
		if resp.QueueCycles != 0 {
			t.Fatalf("%s queued %d cycles despite disjoint demand", name, resp.QueueCycles)
		}
		if resp.LatencyCycles != lm.Solo.DurationCycles() {
			t.Fatalf("%s latency %d, want solo %d", name, resp.LatencyCycles, lm.Solo.DurationCycles())
		}
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
	s := newTestServer(t, Config{Workers: 1, MaxBatch: 4, BatchWindow: 250 * time.Millisecond})
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

// Shutdown drains: queued work finishes, new requests are refused with 503.
func TestServerDrain(t *testing.T) {
	s, err := NewServer(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Registry().Load(toySpec("toy-a")); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	code, body := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/models/toy-a/infer", nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("infer while draining: %d %v", code, body)
	}
	code, body = doJSON(t, ts.Client(), http.MethodGet, ts.URL+"/healthz", nil)
	if code != http.StatusServiceUnavailable || body["status"] != "draining" {
		t.Fatalf("healthz while draining: %d %v", code, body)
	}
	// Shutdown is idempotent.
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// The race stress test of the ISSUE acceptance criteria: ≥16 parallel
// requests through the HTTP API against the shared registry, mixing
// models, infeasible virtual deadlines, and admission pressure. Run under
// -race this exercises concurrent ExecuteAt over shared graphs, the shared
// profile store, and the shared metrics registry.
func TestServerParallelRequestsRace(t *testing.T) {
	metrics := obs.NewMetrics()
	s := newTestServer(t, Config{Workers: 6, QueueDepth: 64, Metrics: metrics})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := ts.Client()

	const n = 24 // >= 16 parallel requests
	models := []string{"toy-a", "toy-b"}
	var wg sync.WaitGroup
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var body any
			if i%4 == 3 {
				body = inferBody{DeadlineCycles: 1} // guaranteed violation
			}
			codes[i], _ = doJSON(t, c, http.MethodPost,
				ts.URL+"/v1/models/"+models[i%2]+"/infer", body)
		}(i)
	}
	wg.Wait()

	ok, violated := 0, 0
	for i, code := range codes {
		switch code {
		case http.StatusOK:
			ok++
		case http.StatusGatewayTimeout:
			violated++
		default:
			t.Fatalf("request %d: unexpected status %d", i, code)
		}
	}
	if wantViolated := n / 4; violated != wantViolated {
		t.Fatalf("%d deadline violations, want %d", violated, wantViolated)
	}
	if ok != n-n/4 {
		t.Fatalf("%d successes of %d requests", ok, n)
	}
	// Accounting: every request resolved exactly once.
	if got := metrics.Counter("serve.requests"); got != n {
		t.Fatalf("serve.requests %d, want %d", got, n)
	}
	if got := metrics.Counter("serve.responses"); got != int64(ok) {
		t.Fatalf("serve.responses %d, want %d", got, ok)
	}
	if got := metrics.Counter("serve.deadline_violations"); got != int64(violated) {
		t.Fatalf("serve.deadline_violations %d, want %d", got, violated)
	}
	if s.Scheduler().InFlight() != 0 {
		t.Fatalf("%d leases still active after all requests resolved", s.Scheduler().InFlight())
	}
}

// Wall-clock context deadlines are honored while the request is queued.
func TestServerContextDeadline(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Infer(ctx, InferRequest{Model: "toy-a"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled context: %v", err)
	}
}

// Admission pressure under AdmitReject surfaces as ErrQueueFull once the
// bounded queue saturates.
func TestServerQueueFull(t *testing.T) {
	s, err := NewServer(Config{QueueDepth: 1, Workers: 1, Admission: AdmitReject})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	if _, err := s.Registry().Load(toySpec("toy-a")); err != nil {
		t.Fatal(err)
	}
	// Saturate: many more concurrent requests than queue + worker slots.
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

func TestStatusOf(t *testing.T) {
	for err, want := range map[error]int{
		ErrNotLoaded:                         http.StatusNotFound,
		ErrAlreadyLoaded:                     http.StatusConflict,
		ErrQueueFull:                         http.StatusTooManyRequests,
		ErrShed:                              http.StatusTooManyRequests,
		ErrDraining:                          http.StatusServiceUnavailable,
		ErrDeadlineViolation:                 http.StatusGatewayTimeout,
		context.DeadlineExceeded:             http.StatusGatewayTimeout,
		context.Canceled:                     499,
		fmt.Errorf("wrap: %w", ErrNotLoaded): http.StatusNotFound,
		errors.New("anything else"):          http.StatusInternalServerError,
	} {
		if got := statusOf(err); got != want {
			t.Errorf("statusOf(%v) = %d, want %d", err, got, want)
		}
	}
}

// A response reaches its caller only after its lease is released, so
// the completion frontier the caller reads next already covers it: work
// the caller places after the response (a frontier-stamped arrival, a
// blocker at the response's end) sees that lease as finished history.
// Completing members before the release let the caller race the worker
// to the frontier.
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
