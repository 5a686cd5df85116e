package serve_test

// The single-machine server is a one-machine fleet: these tests drive a
// serving machine through the fleet's HTTP API, the one HTTP surface
// serve's machines have. They live in serve's external test package,
// which may import the fleet.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pimflow/internal/fleet"
	"pimflow/internal/obs"
	"pimflow/internal/serve"
)

func toySpec(name string) serve.ModelSpec {
	return serve.ModelSpec{Name: name, Model: "toy", Policy: "PIMFlow", TotalChannels: 16, PIMChannels: 8}
}

// oneMachine starts a one-machine fleet from cfg, deploys the toy model
// under each name on a disjoint half of the machine, and shuts the
// fleet down when the test ends.
func oneMachine(tb testing.TB, cfg fleet.Config, names ...string) *fleet.Fleet {
	tb.Helper()
	cfg.Machines = 1
	f, err := fleet.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := f.Shutdown(ctx); err != nil {
			tb.Errorf("shutdown: %v", err)
		}
	})
	for _, name := range names {
		if err := f.Deploy(toySpec(name), 1); err != nil {
			tb.Fatal(err)
		}
	}
	return f
}

// doJSON issues one request with an optional JSON body and decodes a
// JSON reply into out (nil: the reply is read and dropped).
func doJSON(t *testing.T, c *http.Client, method, url string, in, out any) int {
	t.Helper()
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out == nil {
		out = new(any)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil && !errors.Is(err, io.EOF) {
		t.Fatalf("%s %s: decode: %v", method, url, err)
	}
	return resp.StatusCode
}

// post sends body to the handler and returns the recorded reply.
func post(h http.Handler, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

func TestServerHTTPLifecycle(t *testing.T) {
	f := oneMachine(t, fleet.Config{})
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()
	c := ts.Client()

	// Healthy and empty.
	var health map[string]any
	if code := doJSON(t, c, http.MethodGet, ts.URL+"/healthz", nil, &health); code != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz %d %v", code, health)
	}
	var models []fleet.DeploymentInfo
	if code := doJSON(t, c, http.MethodGet, ts.URL+"/v1/models", nil, &models); code != http.StatusOK || len(models) != 0 {
		t.Fatalf("empty list %d %v", code, models)
	}

	// Infer against a model that is not loaded.
	if code := doJSON(t, c, http.MethodPost, ts.URL+"/v1/models/ghost/infer", nil, nil); code != http.StatusNotFound {
		t.Fatalf("infer on unloaded model: %d", code)
	}

	// Load two models on disjoint machine halves.
	for _, name := range []string{"toy-a", "toy-b"} {
		var d fleet.DeploymentInfo
		if code := doJSON(t, c, http.MethodPost, ts.URL+"/v1/models/"+name, toySpec(name), &d); code != http.StatusCreated {
			t.Fatalf("load %s: %d %+v", name, code, d)
		}
		if d.Info == nil || d.Info.SoloCycles <= 0 {
			t.Fatalf("load %s: no solo report: %+v", name, d)
		}
	}
	if code := doJSON(t, c, http.MethodPost, ts.URL+"/v1/models/toy-a", toySpec("toy-a"), nil); code != http.StatusConflict {
		t.Fatalf("double load: %d", code)
	}
	if code := doJSON(t, c, http.MethodGet, ts.URL+"/v1/models", nil, &models); code != http.StatusOK || len(models) != 2 {
		t.Fatalf("list after loads: %d %v", code, models)
	}

	// One inference on each.
	for _, name := range []string{"toy-a", "toy-b"} {
		var resp fleet.Response
		if code := doJSON(t, c, http.MethodPost, ts.URL+"/v1/models/"+name+"/infer", nil, &resp); code != http.StatusOK {
			t.Fatalf("infer %s: %d %+v", name, code, resp)
		}
		if resp.LatencyCycles <= 0 {
			t.Fatalf("infer %s: zero latency: %+v", name, resp)
		}
	}

	// The router counts every routed request, the ghost probe included;
	// the machine's serving counters see the two it served.
	for url, wants := range map[string][]string{
		"/metrics":                {"pimflow_fleet_requests 3", "pimflow_fleet_route_errors 1"},
		"/v1/machines/m0/metrics": {"pimflow_serve_requests 2", "pimflow_serve_responses 2", "pimflow_serve_latency_cycles_count 2"},
	} {
		resp, err := c.Get(ts.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		text, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		for _, want := range wants {
			if !strings.Contains(string(text), want) {
				t.Fatalf("%s missing %q:\n%s", url, want, text)
			}
		}
	}

	// Unload.
	if code := doJSON(t, c, http.MethodDelete, ts.URL+"/v1/models/toy-b", nil, nil); code != http.StatusNoContent {
		t.Fatalf("unload: %d", code)
	}
	if code := doJSON(t, c, http.MethodPost, ts.URL+"/v1/models/toy-b/infer", nil, nil); code != http.StatusNotFound {
		t.Fatalf("infer after unload: %d", code)
	}
}

// A virtual-cycle deadline smaller than the solo latency can never be met;
// the request must fail as a deadline violation (HTTP 504) without
// executing.
func TestServerDeadlineViolation(t *testing.T) {
	f := oneMachine(t, fleet.Config{}, "toy-a", "toy-b")
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()
	s := f.Machine(0)

	var body map[string]any
	code := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/models/toy-a/infer",
		map[string]int64{"deadlineCycles": 1}, &body)
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
	code = doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/models/toy-a/infer",
		map[string]int64{"deadlineCycles": 10 * lm.Solo.DurationCycles()}, &body)
	if code != http.StatusOK {
		t.Fatalf("feasible deadline: %d %v", code, body)
	}
}

// Shutdown drains: queued work finishes, new requests are refused with 503.
func TestServerDrain(t *testing.T) {
	f := oneMachine(t, fleet.Config{}, "toy-a")
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	var body map[string]any
	if code := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/models/toy-a/infer", nil, &body); code != http.StatusServiceUnavailable {
		t.Fatalf("infer while draining: %d %v", code, body)
	}
	if code := doJSON(t, ts.Client(), http.MethodGet, ts.URL+"/healthz", nil, &body); code != http.StatusServiceUnavailable || body["status"] != "draining" {
		t.Fatalf("healthz while draining: %d %v", code, body)
	}
	// Shutdown is idempotent.
	if err := f.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// The race stress test: ≥16 parallel requests through the HTTP API
// against the shared registry, mixing models and infeasible virtual
// deadlines. Run under -race this exercises the router, the machine's
// admission queue and dispatcher, the shared profile store, and the
// shared metrics registries.
func TestServerParallelRequestsRace(t *testing.T) {
	f := oneMachine(t, fleet.Config{QueueDepth: 64}, "toy-a", "toy-b")
	ts := httptest.NewServer(f.Handler())
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
				body = map[string]int64{"deadlineCycles": 1} // guaranteed violation
			}
			codes[i] = doJSON(t, c, http.MethodPost, ts.URL+"/v1/models/"+models[i%2]+"/infer", body, nil)
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
	s := f.Machine(0)
	metrics := s.Metrics()
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

// debugRequestsDoc mirrors the debug/requests JSON envelope; RequestSpan
// decodes each entry.
type debugRequestsDoc struct {
	Total    uint64              `json:"total"`
	Returned int                 `json:"returned"`
	Requests []serve.RequestSpan `json:"requests"`
}

// TestDebugRequestsGoldenShape locks the machine's debug/requests JSON
// shape: envelope keys, per-span keys, and the stage object layout.
func TestDebugRequestsGoldenShape(t *testing.T) {
	f := oneMachine(t, fleet.Config{RequestLog: 8}, "toy-a", "toy-b")
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()
	// toy-a arrives at the frontier toy-b's request leaves, so its span
	// has a start cycle to show.
	for _, name := range []string{"toy-b", "toy-a"} {
		if code := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/models/"+name+"/infer", nil, nil); code != http.StatusOK {
			t.Fatalf("infer %s: %d", name, code)
		}
	}

	var raw map[string]json.RawMessage
	url := ts.URL + "/v1/machines/m0/debug/requests?model=toy-a&outcome=served"
	if code := doJSON(t, ts.Client(), http.MethodGet, url, nil, &raw); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var doc debugRequestsDoc
	whole, _ := json.Marshal(raw)
	if err := json.Unmarshal(whole, &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"total", "returned", "requests"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("envelope missing %q", key)
		}
	}
	if doc.Returned != 1 || len(doc.Requests) != 1 {
		t.Fatalf("returned %d spans: %+v", doc.Returned, doc)
	}

	// Golden key shape of one span, wall stamps zeroed (they are the only
	// nondeterministic fields).
	sp := doc.Requests[0]
	sp.Wall = serve.StageWall{}
	spJSON, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]any
	if err := json.Unmarshal(spJSON, &keys); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"id", "model", "slo", "outcome", "arrivalCycle", "startCycle", "endCycle", "latencyCycles", "batchSize", "stages", "wall"} {
		if _, ok := keys[want]; !ok {
			t.Errorf("span missing key %q: %s", want, spJSON)
		}
	}
	stages, ok := keys["stages"].(map[string]any)
	if !ok {
		t.Fatalf("stages not an object: %s", spJSON)
	}
	for _, want := range []string{"queueCycles", "batchWaitCycles", "leaseWaitCycles", "executeCycles"} {
		if _, ok := stages[want]; !ok {
			t.Errorf("stages missing %q: %s", want, spJSON)
		}
	}

	// A bad n parameter is a 400, an unknown machine a 404.
	for path, want := range map[string]int{
		"/v1/machines/m0/debug/requests?n=x": http.StatusBadRequest,
		"/v1/machines/m9/debug/requests":     http.StatusNotFound,
	} {
		if code := doJSON(t, ts.Client(), http.MethodGet, ts.URL+path, nil, nil); code != want {
			t.Errorf("GET %s: status %d, want %d", path, code, want)
		}
	}
}

// TestDebugRequestsDisabled pins the off state: debug/requests is 404
// and responses carry no request ID.
func TestDebugRequestsDisabled(t *testing.T) {
	f := oneMachine(t, fleet.Config{}, "toy-a")
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()
	if code := doJSON(t, ts.Client(), http.MethodGet, ts.URL+"/v1/machines/m0/debug/requests", nil, nil); code != http.StatusNotFound {
		t.Fatalf("status %d, want 404 when request logging is off", code)
	}
	var resp fleet.Response
	if code := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/models/toy-a/infer", nil, &resp); code != http.StatusOK {
		t.Fatalf("infer: %d", code)
	}
	if id := resp.Hops[0].Resp.RequestID; id != "" {
		t.Errorf("request ID %q minted with logging off", id)
	}
}

// TestMetricsJSONNegotiation checks /metrics.json and the Accept header
// route to the JSON registry dump while plain /metrics stays text, on
// the router's registry and on the machine's.
func TestMetricsJSONNegotiation(t *testing.T) {
	f := oneMachine(t, fleet.Config{}, "toy-a")
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()
	c := ts.Client()

	get := func(url, accept string) (string, []byte) {
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := c.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.Header.Get("Content-Type"), body
	}

	for _, url := range []string{ts.URL + "/metrics", ts.URL + "/v1/machines/m0/metrics"} {
		if ct, body := get(url, ""); ct != "text/plain; version=0.0.4; charset=utf-8" || json.Valid(body) {
			t.Errorf("plain %s: content type %q, json=%v", url, ct, json.Valid(body))
		}
	}
	for _, variant := range []struct{ url, accept string }{
		{ts.URL + "/metrics.json", ""},
		{ts.URL + "/metrics", "application/json"},
		{ts.URL + "/v1/machines/m0/metrics", "application/json"},
	} {
		ct, body := get(variant.url, variant.accept)
		if ct != "application/json" {
			t.Errorf("%s (Accept=%q): content type %q", variant.url, variant.accept, ct)
		}
		var snap obs.Snapshot
		if err := json.Unmarshal(body, &snap); err != nil {
			t.Errorf("%s: not a metrics snapshot: %v", variant.url, err)
		}
	}
}

// badLoadBodies are POST /v1/models/{name} bodies a one-machine server
// must answer with 400 before compiling anything: specs naming an
// unknown model, policy or SLO class, an invalid channel split, a slice
// larger than the machine or a virtual batch window (live batches form
// under wall windows only), and bodies that are not one JSON value.
var badLoadBodies = []string{
	`{"model":"nope"}`,
	`{"model":"mobilenet-v2","pimChannels":99}`,
	`{"model":"mobilenet-v2","policy":"bogus"}`,
	`{"model":"toy","slo":"nope"}`,
	`{"model":"toy","totalChannels":100}`,
	`{"model":"toy","batchWindowCycles":1}`,
	`{"model":"mobilenet-v2"} junk`,
	`{"model":"toy"} junk`,
	`{"model":"toy"}{"model":"toy"}`,
	`{"model":"toy"`,
}

// badInferBodies are POST /v1/models/{name}/infer bodies a one-machine
// server must answer with 400: trailing data, and a timeout no duration
// holds.
var badInferBodies = []string{
	`{} junk`,
	`{}}`,
	`{"timeoutMillis":9223372036854775807}`,
	`{"timeoutMillis":9223372036855}`,
}

// maxBodyBytes is the fleet handler's body limit.
const maxBodyBytes = 1 << 20

// TestHTTPBadRequestsAre400 holds a one-machine server to 400 for every
// bad load and infer body, a body over 1 MiB included, while a valid
// spec still loads and an empty or whitespace-padded body still infers.
func TestHTTPBadRequestsAre400(t *testing.T) {
	f := oneMachine(t, fleet.Config{}, "toy-a")
	h := f.Handler()
	huge := `{"model":"toy","slo":"` + strings.Repeat("a", maxBodyBytes) + `"}`
	for _, body := range append(badLoadBodies, huge) {
		if rec := post(h, "/v1/models/x", body); rec.Code != http.StatusBadRequest {
			t.Errorf("load %.60q: status %d, want 400: %s", body, rec.Code, rec.Body)
		}
	}
	if ds := f.Deployments(); len(ds) != 1 {
		t.Fatalf("%d models after bad loads, want the 1 loaded first", len(ds))
	}
	for _, body := range append(badInferBodies, `{}`+strings.Repeat(" ", maxBodyBytes)) {
		if rec := post(h, "/v1/models/toy-a/infer", body); rec.Code != http.StatusBadRequest {
			t.Errorf("infer %.60q: status %d, want 400: %s", body, rec.Code, rec.Body)
		}
	}
	if rec := post(h, "/v1/models/y", " {\"model\":\"toy\",\"totalChannels\":16,\"pimChannels\":8}\n\t "); rec.Code != http.StatusCreated {
		t.Errorf("valid load: status %d: %s", rec.Code, rec.Body)
	}
	for _, body := range []string{``, " \n", `{}`, `{"timeoutMillis":60000} `} {
		if rec := post(h, "/v1/models/toy-a/infer", body); rec.Code != http.StatusOK {
			t.Errorf("infer %q: status %d: %s", body, rec.Code, rec.Body)
		}
	}
}

// FuzzLoadBody sends each input as the deploy body of POST
// /v1/models/{name} to a one-machine fleet, under a name of its own.
// Every body gets 201, 400, 409 or 507, never a 500 or a panic. A
// deployed model is listed by GET /v1/models, then undeployed.
func FuzzLoadBody(f *testing.F) {
	for _, seed := range append(badLoadBodies,
		``, `{}`, `null`, `[]`, `{"model":"toy"}`,
		`{"model":"toy","totalChannels":16,"pimChannels":8,"maxBatch":4,"slo":""}`,
		`{"model":"toy","policy":"baseline","totalChannels":8}`,
	) {
		f.Add([]byte(seed))
	}
	h := oneMachine(f, fleet.Config{}, "toy").Handler()
	loads := 0
	f.Fuzz(func(t *testing.T, body []byte) {
		loads++
		name := fmt.Sprintf("m%d", loads)
		rec := post(h, "/v1/models/"+name, string(body))
		switch rec.Code {
		case http.StatusBadRequest, http.StatusConflict, http.StatusInsufficientStorage:
			return
		case http.StatusCreated:
		default:
			t.Fatalf("POST %q: status %d: %s", body, rec.Code, rec.Body)
		}
		list := httptest.NewRecorder()
		h.ServeHTTP(list, httptest.NewRequest(http.MethodGet, "/v1/models", nil))
		var models []fleet.DeploymentInfo
		if err := json.Unmarshal(list.Body.Bytes(), &models); err != nil {
			t.Fatalf("GET /v1/models: %v", err)
		}
		if !slices.ContainsFunc(models, func(d fleet.DeploymentInfo) bool { return d.Name == name }) {
			t.Fatalf("model %q deployed from %q but not listed", name, body)
		}
		del := httptest.NewRecorder()
		h.ServeHTTP(del, httptest.NewRequest(http.MethodDelete, "/v1/models/"+name, nil))
		if del.Code != http.StatusNoContent {
			t.Fatalf("DELETE %s: status %d", name, del.Code)
		}
	})
}

// FuzzInferBody sends each input as the body of POST
// /v1/models/toy/infer to a one-machine fleet. Every body gets 200, 400,
// 404, 429 or 504, never a 500 or a panic, and a 200 body decodes as a
// fleet.Response.
func FuzzInferBody(f *testing.F) {
	for _, seed := range append(badInferBodies,
		``, `{}`, ` {} `, `null`, `{"deadlineCycles":1}`, `{"arrivalCycle":1000000}`,
		`{"timeoutMillis":1}`, `{"timeoutMillis":-1,"deadlineCycles":-1}`, `{"arrivalCycle":-5}`,
	) {
		f.Add([]byte(seed))
	}
	h := oneMachine(f, fleet.Config{}, "toy").Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := post(h, "/v1/models/toy/infer", string(body))
		switch rec.Code {
		case http.StatusBadRequest, http.StatusNotFound, http.StatusTooManyRequests, http.StatusGatewayTimeout:
			return
		case http.StatusOK:
		default:
			t.Fatalf("POST %q: status %d: %s", body, rec.Code, rec.Body)
		}
		dec := json.NewDecoder(strings.NewReader(rec.Body.String()))
		dec.DisallowUnknownFields()
		var resp fleet.Response
		if err := dec.Decode(&resp); err != nil {
			t.Fatalf("POST %q: 200 body %s: %v", body, rec.Body, err)
		}
	})
}
