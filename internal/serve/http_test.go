package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// badLoadBodies are POST /v1/models/{name} bodies the server must answer
// with 400 before compiling anything: specs naming an unknown model,
// policy or SLO class, an invalid channel split or a slice larger than
// the machine, and bodies that are not one JSON value.
var badLoadBodies = []string{
	`{"model":"nope"}`,
	`{"model":"mobilenet-v2","pimChannels":99}`,
	`{"model":"mobilenet-v2","policy":"bogus"}`,
	`{"model":"toy","slo":"nope"}`,
	`{"model":"toy","totalChannels":100}`,
	`{"model":"mobilenet-v2"} junk`,
	`{"model":"toy"} junk`,
	`{"model":"toy"}{"model":"toy"}`,
	`{"model":"toy"`,
}

// badInferBodies are POST /v1/models/{name}/infer bodies the server must
// answer with 400: trailing data, and a timeout no duration holds.
var badInferBodies = []string{
	`{} junk`,
	`{}}`,
	`{"timeoutMillis":9223372036854775807}`,
	`{"timeoutMillis":9223372036855}`,
}

// post sends body to the handler and returns the status and response.
func post(h http.Handler, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

// TestHTTPBadRequestsAre400 holds the handler to 400 for every bad load
// and infer body, a body over 1 MiB included, while a valid spec still
// loads and an empty or whitespace-padded body still infers.
func TestHTTPBadRequestsAre400(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	huge := `{"model":"toy","slo":"` + strings.Repeat("a", maxBodyBytes) + `"}`
	for _, body := range append(badLoadBodies, huge) {
		if rec := post(h, "/v1/models/x", body); rec.Code != http.StatusBadRequest {
			t.Errorf("load %.60q: status %d, want 400: %s", body, rec.Code, rec.Body)
		}
	}
	if s.Registry().Len() != 2 {
		t.Fatalf("%d models after bad loads, want the 2 loaded first", s.Registry().Len())
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
