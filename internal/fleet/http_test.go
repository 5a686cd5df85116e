package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pimflow/internal/fleet"
	"pimflow/internal/serve"
)

// doJSON issues one request with a JSON body and decodes the JSON reply
// into out (which may be nil for empty replies).
func doJSON(t *testing.T, c *http.Client, method, url string, in, out any) int {
	t.Helper()
	var body bytes.Buffer
	if in != nil {
		if err := json.NewEncoder(&body).Encode(in); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil && resp.ContentLength != 0 {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// TestHTTPEndToEnd drives the fleet API the way the CLI smoke does:
// deploy two models over HTTP, register a Sequence graph spanning them,
// infer through the graph, and read the machine listing and metrics.
func TestHTTPEndToEnd(t *testing.T) {
	f, err := fleet.New(fleet.Config{Machines: 2, Certify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown(context.Background())
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()
	c := ts.Client()

	var health map[string]any
	if code := doJSON(t, c, http.MethodGet, ts.URL+"/healthz", nil, &health); code != http.StatusOK {
		t.Fatalf("healthz: %d %v", code, health)
	}
	if health["machines"] != float64(2) {
		t.Fatalf("healthz machines = %v, want 2", health["machines"])
	}

	// Whole-machine demands force the Sequence across two machines.
	deploy := func(name string, replicas int) {
		body := map[string]any{"model": "toy", "totalChannels": 32, "pimChannels": 16, "replicas": replicas}
		var got map[string]any
		if code := doJSON(t, c, http.MethodPost, ts.URL+"/v1/models/"+name, body, &got); code != http.StatusCreated {
			t.Fatalf("deploy %s: %d %v", name, code, got)
		}
	}
	deploy("front", 1)
	deploy("back", 1)

	// Redeploy conflicts; unknown-model infer 404s.
	if code := doJSON(t, c, http.MethodPost, ts.URL+"/v1/models/front",
		map[string]any{"model": "toy"}, nil); code != http.StatusConflict {
		t.Fatalf("redeploy front: %d, want 409", code)
	}
	if code := doJSON(t, c, http.MethodPost, ts.URL+"/v1/models/ghost/infer", nil, nil); code != http.StatusNotFound {
		t.Fatalf("infer ghost: %d, want 404", code)
	}

	var machines []fleet.MachineInfo
	if code := doJSON(t, c, http.MethodGet, ts.URL+"/v1/machines", nil, &machines); code != http.StatusOK {
		t.Fatalf("machines: %d", code)
	}
	if len(machines) != 2 || len(machines[0].Placements) != 1 || len(machines[1].Placements) != 1 {
		t.Fatalf("placements not spread across both machines: %+v", machines)
	}

	g := fleet.Graph{
		Root: "root",
		Nodes: []fleet.GraphNode{{Name: "root", Type: "sequence", Steps: []fleet.GraphStep{
			{Model: "front"}, {Model: "back"},
		}}},
	}
	var regged fleet.Graph
	if code := doJSON(t, c, http.MethodPost, ts.URL+"/v1/graphs/chain", g, &regged); code != http.StatusCreated {
		t.Fatalf("register graph: %d %+v", code, regged)
	}

	var resp fleet.Response
	if code := doJSON(t, c, http.MethodPost, ts.URL+"/v1/graphs/chain/infer", nil, &resp); code != http.StatusOK {
		t.Fatalf("graph infer: %d %+v", code, resp)
	}
	if len(resp.Hops) != 2 || resp.Hops[0].Model != "front" || resp.Hops[1].Model != "back" {
		t.Fatalf("graph hops = %+v, want front then back", resp.Hops)
	}
	if resp.Hops[0].Machine == resp.Hops[1].Machine {
		t.Fatalf("both hops on %s; whole-machine models must split", resp.Hops[0].Machine)
	}
	if want := resp.Hops[0].Resp.LatencyCycles + resp.Hops[1].Resp.LatencyCycles; resp.LatencyCycles != want {
		t.Fatalf("sequence latency %d != hop sum %d", resp.LatencyCycles, want)
	}

	// Per-machine metrics resolve by name; unknown machines 404.
	if code := doJSON(t, c, http.MethodGet, ts.URL+"/v1/machines/m0/metrics", nil, nil); code != http.StatusOK {
		t.Fatalf("machine metrics: %d", code)
	}
	if code := doJSON(t, c, http.MethodGet, ts.URL+"/v1/machines/m9/metrics", nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown machine metrics: %d, want 404", code)
	}

	// Scale past the fleet is a 4xx, not a crash; undeploy then 404s.
	if code := doJSON(t, c, http.MethodPost, ts.URL+"/v1/models/front/scale",
		map[string]int{"replicas": 3}, nil); code < 400 || code >= 500 {
		t.Fatalf("overscale: %d, want 4xx", code)
	}
	if code := doJSON(t, c, http.MethodDelete, ts.URL+"/v1/models/back", nil, nil); code != http.StatusNoContent {
		t.Fatalf("undeploy back: %d", code)
	}
	if code := doJSON(t, c, http.MethodPost, ts.URL+"/v1/models/back/infer", nil, nil); code != http.StatusNotFound {
		t.Fatalf("infer undeployed back: %d, want 404", code)
	}

	if diags := f.Verify(); len(diags) > 0 {
		t.Fatalf("fleet certificate violations: %v", diags)
	}
}

// TestHTTPLazyDeploy registers without placing; the first infer through
// the router triggers the on-demand load.
func TestHTTPLazyDeploy(t *testing.T) {
	f, err := fleet.New(fleet.Config{Machines: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown(context.Background())
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()
	c := ts.Client()

	body := map[string]any{"model": "toy", "totalChannels": 16, "pimChannels": 8, "lazy": true}
	if code := doJSON(t, c, http.MethodPost, ts.URL+"/v1/models/cold", body, nil); code != http.StatusCreated {
		t.Fatalf("lazy deploy: %d", code)
	}
	var ds []fleet.DeploymentInfo
	if code := doJSON(t, c, http.MethodGet, ts.URL+"/v1/models", nil, &ds); code != http.StatusOK {
		t.Fatalf("models: %d", code)
	}
	if len(ds) != 1 || ds[0].Loaded {
		t.Fatalf("lazy model listed as loaded: %+v", ds)
	}
	var resp fleet.Response
	if code := doJSON(t, c, http.MethodPost, ts.URL+"/v1/models/cold/infer", nil, &resp); code != http.StatusOK {
		t.Fatalf("lazy infer: %d %+v", code, resp)
	}
	if n := f.Metrics().Counter("fleet.on_demand_loads"); n < 1 {
		t.Fatalf("on_demand_loads = %d, want >= 1", n)
	}
}

// TestNamesShareOneNamespace: a request names a model or a graph, so a
// name registered as one is taken for the other, and every clash answers
// 409 Conflict like a redeployed model.
func TestNamesShareOneNamespace(t *testing.T) {
	f, err := fleet.New(fleet.Config{Machines: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown(context.Background())
	h := f.Handler()
	post := func(path, body string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec.Code
	}
	model := `{"model":"toy","totalChannels":16,"pimChannels":8,"lazy":true}`
	graph := `{"root":"r","nodes":[{"name":"r","type":"sequence","steps":[{"model":"toy"}]}]}`
	for _, step := range []struct {
		path, body string
		want       int
	}{
		{"/v1/models/toy", model, http.StatusCreated},
		{"/v1/graphs/g", graph, http.StatusCreated},
		{"/v1/graphs/g", graph, http.StatusConflict},   // the graph again
		{"/v1/graphs/toy", graph, http.StatusConflict}, // a graph named like the model
		{"/v1/models/g", model, http.StatusConflict},   // a model named like the graph
		{"/v1/models/toy", model, http.StatusConflict}, // the model again
	} {
		if code := post(step.path, step.body); code != step.want {
			t.Errorf("POST %s: %d, want %d", step.path, code, step.want)
		}
	}
	spec := serve.ModelSpec{Name: "g", Model: "toy", TotalChannels: 16, PIMChannels: 8}
	if err := f.Deploy(spec, 1); !errors.Is(err, fleet.ErrNameTaken) {
		t.Errorf("Deploy of a model named like a graph: %v, want ErrNameTaken", err)
	}
	if err := f.RegisterGraph(fleet.Graph{Name: "toy", Root: "r", Nodes: []fleet.GraphNode{{Name: "r", Type: "sequence",
		Steps: []fleet.GraphStep{{Model: "toy"}}}}}); !errors.Is(err, fleet.ErrNameTaken) {
		t.Errorf("RegisterGraph named like a model: %v, want ErrNameTaken", err)
	}
	if ds := f.Deployments(); len(ds) != 1 || ds[0].Name != "toy" {
		t.Errorf("deployments %+v, want only toy", ds)
	}
}

// TestHTTPBadRequestsAre400: a deploy whose spec names an unknown model,
// policy or SLO class or an invalid channel split, a body with data after
// its JSON value, and an infer timeout no duration holds all answer 400,
// not 500, and deploy nothing.
func TestHTTPBadRequestsAre400(t *testing.T) {
	f, err := fleet.New(fleet.Config{Machines: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown(context.Background())
	h := f.Handler()
	post := func(path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec
	}
	for _, body := range []string{
		`{"model":"nope"}`,
		`{"model":"toy","pimChannels":99}`,
		`{"model":"toy","policy":"bogus"}`,
		`{"model":"toy","slo":"nope"}`,
		`{"model":"toy"} junk`,
		`{"model":"toy","lazy":true} {}`,
	} {
		if rec := post("/v1/models/x", body); rec.Code != http.StatusBadRequest {
			t.Errorf("deploy %s: status %d, want 400: %s", body, rec.Code, rec.Body)
		}
	}
	if ds := f.Deployments(); len(ds) != 0 {
		t.Fatalf("bad deploys left %v", ds)
	}
	if rec := post("/v1/models/toy", `{"model":"toy","totalChannels":16,"pimChannels":8}`); rec.Code != http.StatusCreated {
		t.Fatalf("valid deploy: status %d: %s", rec.Code, rec.Body)
	}
	for body, want := range map[string]int{
		`{"timeoutMillis":9223372036854775807}`: http.StatusBadRequest,
		`{} junk`:                               http.StatusBadRequest,
		`{"timeoutMillis":60000}`:               http.StatusOK,
	} {
		if rec := post("/v1/models/toy/infer", body); rec.Code != want {
			t.Errorf("infer %s: status %d, want %d: %s", body, rec.Code, want, rec.Body)
		}
	}
}

// A live deploy or lazy registration that asks for a virtual batch
// window is refused with 400: live batches form under wall windows only.
func TestDeployRefusesVirtualWindow(t *testing.T) {
	f, err := fleet.New(fleet.Config{Machines: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown(context.Background())
	for _, body := range []string{`{"model":"toy","batchWindowCycles":1}`, `{"model":"toy","batchWindowCycles":1,"lazy":true}`} {
		rec := httptest.NewRecorder()
		f.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/models/x", strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "batchWindowCycles") {
			t.Errorf("deploy %s: status %d, want 400 naming the field: %s", body, rec.Code, rec.Body)
		}
	}
	if ds := f.Deployments(); len(ds) != 0 {
		t.Fatalf("refused deploys left %v", ds)
	}
}

func TestStatusOf(t *testing.T) {
	for err, want := range map[error]int{
		fleet.ErrUnknownModel:                      http.StatusNotFound,
		serve.ErrNotLoaded:                         http.StatusNotFound,
		serve.ErrAlreadyLoaded:                     http.StatusConflict,
		fleet.ErrNameTaken:                         http.StatusConflict,
		fleet.ErrNoCapacity:                        http.StatusInsufficientStorage,
		serve.ErrBadSpec:                           http.StatusBadRequest,
		serve.ErrQueueFull:                         http.StatusTooManyRequests,
		serve.ErrShed:                              http.StatusTooManyRequests,
		serve.ErrDraining:                          http.StatusServiceUnavailable,
		serve.ErrDeadlineViolation:                 http.StatusGatewayTimeout,
		context.DeadlineExceeded:                   http.StatusGatewayTimeout,
		context.Canceled:                           499,
		fmt.Errorf("wrap: %w", serve.ErrNotLoaded): http.StatusNotFound,
		errors.New("anything else"):                http.StatusInternalServerError,
	} {
		if got := fleet.StatusOf(err); got != want {
			t.Errorf("statusOf(%v) = %d, want %d", err, got, want)
		}
	}
}

// TestRedeployServesItsSpec: a name undeployed and deployed again with
// another model serves the new model, not the compile the fleet cached
// under the name; the same spec again re-deploys from that cache.
func TestRedeployServesItsSpec(t *testing.T) {
	f, err := fleet.New(fleet.Config{Machines: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown(context.Background())
	h := f.Handler()
	do := func(method, path, body string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec.Code
	}
	served := func() string {
		lm, err := f.Machine(0).Registry().Get("a")
		if err != nil {
			t.Fatal(err)
		}
		return lm.Spec.Model
	}
	mobilenet := `{"model":"mobilenet-v2","totalChannels":16,"pimChannels":8}`
	resnet := `{"model":"resnet-50","totalChannels":16,"pimChannels":8}`
	for _, step := range []struct {
		method, body string
		want         int
	}{
		{http.MethodPost, mobilenet, http.StatusCreated},
		{http.MethodDelete, "", http.StatusNoContent},
		{http.MethodPost, resnet, http.StatusCreated},
	} {
		if code := do(step.method, "/v1/models/a", step.body); code != step.want {
			t.Fatalf("%s /v1/models/a %s: %d, want %d", step.method, step.body, code, step.want)
		}
	}
	if ds := f.Deployments(); len(ds) != 1 || ds[0].Model != "resnet-50" {
		t.Fatalf("deployments %+v, want a = resnet-50", ds)
	}
	if got := served(); got != "resnet-50" {
		t.Fatalf("a serves %s, want resnet-50", got)
	}
	loads := f.Metrics().Counter("serve.model_loads")
	if code := do(http.MethodDelete, "/v1/models/a", ""); code != http.StatusNoContent {
		t.Fatalf("undeploy: %d", code)
	}
	if code := do(http.MethodPost, "/v1/models/a", resnet); code != http.StatusCreated {
		t.Fatalf("redeploy of the same spec: %d", code)
	}
	if got := f.Metrics().Counter("serve.model_loads"); got != loads {
		t.Errorf("redeploying the same spec compiled again (%v loads, want %v)", got, loads)
	}
	if got := served(); got != "resnet-50" {
		t.Errorf("a serves %s after the warm redeploy, want resnet-50", got)
	}
}

// TestFailedDeployLeavesNothing: a deploy that fails for want of
// capacity, after placing none or some of its replicas, leaves neither a
// registration nor an installed replica, so a corrected deploy of the
// name succeeds.
func TestFailedDeployLeavesNothing(t *testing.T) {
	post := func(h http.Handler, path, body string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec.Code
	}

	one, err := fleet.New(fleet.Config{Machines: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer one.Shutdown(context.Background())
	h := one.Handler()
	for _, step := range []struct {
		path, body string
		want       int
	}{
		{"/v1/models/a", `{"model":"resnet-50","totalChannels":16,"pimChannels":8}`, http.StatusCreated},
		{"/v1/models/big", `{"model":"mobilenet-v2","totalChannels":32,"pimChannels":16}`, http.StatusInsufficientStorage},
		{"/v1/models/big", `{"model":"mobilenet-v2","totalChannels":8,"pimChannels":4}`, http.StatusCreated},
	} {
		if code := post(h, step.path, step.body); code != step.want {
			t.Fatalf("POST %s %s: %d, want %d", step.path, step.body, code, step.want)
		}
		if step.want != http.StatusCreated {
			for _, d := range one.Deployments() {
				if d.Name == "big" {
					t.Errorf("the failed deploy left %+v", d)
				}
			}
		}
	}

	two, err := fleet.New(fleet.Config{Machines: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer two.Shutdown(context.Background())
	h = two.Handler()
	if code := post(h, "/v1/models/filler", `{"model":"toy","totalChannels":32,"pimChannels":16}`); code != http.StatusCreated {
		t.Fatalf("filler deploy: %d", code)
	}
	if code := post(h, "/v1/models/pair", `{"model":"toy","totalChannels":16,"pimChannels":8,"replicas":2}`); code != http.StatusInsufficientStorage {
		t.Fatalf("two replicas where one fits: %d, want 507", code)
	}
	if ds := two.Deployments(); len(ds) != 1 || ds[0].Name != "filler" {
		t.Errorf("deployments %+v, want only filler", ds)
	}
	for i := 0; i < two.Size(); i++ {
		if _, err := two.Machine(i).Registry().Get("pair"); !errors.Is(err, serve.ErrNotLoaded) {
			t.Errorf("machine %d still holds a replica of pair (%v)", i, err)
		}
	}
	if diags := two.Verify(); len(diags) > 0 {
		t.Errorf("fleet certificate: %v", diags)
	}
}
