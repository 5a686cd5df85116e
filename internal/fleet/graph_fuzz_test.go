package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"pimflow/internal/fleet"
	"pimflow/internal/serve"
)

// FuzzRegisterGraph sends each input as the body of POST
// /v1/graphs/{name} to a one-machine fleet with one deployed toy model.
// Registration runs verify.Fleet's FL-NODE and FL-ACYCLIC rules on the
// body, so this drives the certificate checker with hostile graphs. Every
// body gets 201, 400 or 404, never a 500 or a panic, and a created graph
// is listed by GET /v1/graphs.
func FuzzRegisterGraph(f *testing.F) {
	for _, seed := range []string{
		`{"root":"r","nodes":[{"name":"r","type":"sequence","steps":[{"model":"toy"},{"model":"toy"}]}]}`,
		`{"root":"r","nodes":[{"name":"r","type":"ensemble","steps":[{"model":"toy"},{"model":"toy"}]}]}`,
		`{"root":"r","nodes":[{"name":"r","type":"splitter","steps":[{"model":"toy","weight":3},{"node":"s","weight":1}]},
		  {"name":"s","type":"sequence","steps":[{"model":"toy"}]}]}`,
		`{"root":"r","nodes":[{"name":"r","type":"switch","steps":[{"model":"toy","condition":"gold"},{"model":"toy"}]}]}`,
		`{"root":"a","nodes":[{"name":"a","type":"sequence","steps":[{"node":"b"}]},
		  {"name":"b","type":"sequence","steps":[{"node":"a"}]}]}`,
		`{"root":"ghost","nodes":[{"name":"r","type":"sequence","steps":[{"model":"toy"}]}]}`,
		`{"root":"r","nodes":[{"name":"r","type":"sequence","steps":[{"model":"undeployed"}]}]}`,
		``,
		`{"nodes":[{}]}`,
		`[1,2,3]`,
	} {
		f.Add([]byte(seed))
	}
	fl, err := fleet.New(fleet.Config{Machines: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { fl.Shutdown(context.Background()) })
	if err := fl.Deploy(serve.ModelSpec{Name: "toy", Model: "toy", Policy: "PIMFlow", TotalChannels: 16, PIMChannels: 8}, 1); err != nil {
		f.Fatal(err)
	}
	h := fl.Handler()
	registered := 0
	f.Fuzz(func(t *testing.T, body []byte) {
		registered++
		name := fmt.Sprintf("g%d", registered)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/graphs/"+name, bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusBadRequest, http.StatusNotFound:
			return
		case http.StatusCreated:
		default:
			t.Fatalf("POST %q: status %d: %s", body, rec.Code, rec.Body)
		}
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/graphs", nil))
		var graphs []fleet.Graph
		if err := json.Unmarshal(rec.Body.Bytes(), &graphs); err != nil {
			t.Fatalf("GET /v1/graphs: %v", err)
		}
		if !slices.ContainsFunc(graphs, func(g fleet.Graph) bool { return g.Name == name }) {
			t.Fatalf("graph %q registered from %q but not listed", name, body)
		}
	})
}
