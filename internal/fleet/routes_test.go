package fleet_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"pimflow/internal/fleet"
)

// routesGolden holds what a one-machine fleet answers on the routes of
// TestOneMachineRoutesGolden. Delete it and run the test to write it
// anew (that run fails, so a rewrite is always reviewed).
const routesGolden = "testdata/routes.golden"

// wallKeys are the JSON fields that carry wall-clock readings; the
// golden masks their values.
var wallKeys = map[string]bool{"uptimeSeconds": true, "compileSeconds": true, "wall": true, "serve.model_load_seconds": true}

// TestOneMachineRoutesGolden pins the single-machine server's HTTP
// surface: on a one-machine fleet with request logging, a fixed load,
// infer and unload sequence, then the listings, each answer's status and
// body. The sequence covers the eight routes the single-machine server
// always had (health, metrics as text and JSON, the request log, list,
// load, unload and infer) plus the machine listing and the machine's
// metrics, where its scheduler, queue and serve.* series are. Wall-clock
// values are masked.
func TestOneMachineRoutesGolden(t *testing.T) {
	f, err := fleet.New(fleet.Config{Machines: 1, RequestLog: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Shutdown(context.Background()) })
	h := f.Handler()

	toy := `{"model":"toy","policy":"PIMFlow","totalChannels":16,"pimChannels":8}`
	var out bytes.Buffer
	for _, step := range []struct{ method, path, body string }{
		{http.MethodPost, "/v1/models/toy-a", toy},
		{http.MethodPost, "/v1/models/toy-b", `{"model":"toy","totalChannels":16,"pimChannels":8,"slo":"gold","maxBatch":4}`},
		{http.MethodPost, "/v1/models/toy-a", toy},
		{http.MethodPost, "/v1/models/toy-a/infer", ``},
		{http.MethodPost, "/v1/models/toy-b/infer", `{"deadlineCycles":1}`},
		{http.MethodPost, "/v1/models/toy-b/infer", `{}`},
		{http.MethodPost, "/v1/models/toy-a/infer", `{"deadlineCycles":100000}`},
		{http.MethodDelete, "/v1/models/toy-b", ``},
		{http.MethodDelete, "/v1/models/toy-b", ``},
		{http.MethodPost, "/v1/models/toy-b/infer", ``},
		{http.MethodGet, "/healthz", ``},
		{http.MethodGet, "/metrics", ``},
		{http.MethodGet, "/metrics.json", ``},
		{http.MethodGet, "/v1/machines/m0/debug/requests", ``},
		{http.MethodGet, "/v1/machines/m0/debug/requests?outcome=violated", ``},
		{http.MethodGet, "/v1/models", ``},
		{http.MethodGet, "/v1/machines", ``},
		{http.MethodGet, "/v1/machines/m0/metrics", ``},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(step.method, step.path, strings.NewReader(step.body)))
		fmt.Fprintf(&out, "== %s %s %s\n%d %s\n", step.method, step.path, step.body, rec.Code, rec.Header().Get("Content-Type"))
		out.Write(maskWall(t, rec.Body.Bytes()))
	}

	want, err := os.ReadFile(routesGolden)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.WriteFile(routesGolden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s; review it and run the test again", routesGolden)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Bytes(); !bytes.Equal(got, want) {
		gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gotLines), len(wantLines)) {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("%s line %d:\n got %s\nwant %s", routesGolden, i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("%s: got %d lines, want %d", routesGolden, len(gotLines), len(wantLines))
	}
}

// maskWall returns a body with its wall-clock values masked: a JSON body
// re-indented with each wallKeys value replaced by "<wall>", a metrics
// text body without the serve.model_load_seconds series.
func maskWall(t *testing.T, body []byte) []byte {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		if errors.Is(err, io.EOF) {
			return nil
		}
		var text bytes.Buffer
		sc := bufio.NewScanner(bytes.NewReader(body))
		for sc.Scan() {
			if !strings.Contains(sc.Text(), "model_load_seconds") {
				text.WriteString(sc.Text() + "\n")
			}
		}
		return text.Bytes()
	}
	var mask func(any)
	mask = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, e := range v {
				if wallKeys[k] {
					v[k] = "<wall>"
					continue
				}
				mask(e)
			}
		case []any:
			for _, e := range v {
				mask(e)
			}
		}
	}
	mask(v)
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}
