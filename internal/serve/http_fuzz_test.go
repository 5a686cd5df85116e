package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"
)

// fuzzServer starts a server with the toy model loaded as "toy".
func fuzzServer(f *testing.F) http.Handler {
	s, err := NewServer(Config{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	if _, err := s.Registry().Load(toySpec("toy")); err != nil {
		f.Fatal(err)
	}
	return s.Handler()
}

// FuzzLoadBody sends each input as the ModelSpec body of POST
// /v1/models/{name}, under a name of its own. Every body gets 201, 400 or
// 409, never a 500 or a panic. A loaded model is listed by GET
// /v1/models, then unloaded.
func FuzzLoadBody(f *testing.F) {
	for _, seed := range append(badLoadBodies,
		``, `{}`, `null`, `[]`, `{"model":"toy"}`,
		`{"model":"toy","totalChannels":16,"pimChannels":8,"maxBatch":4,"slo":""}`,
		`{"model":"toy","policy":"baseline","totalChannels":8}`) {
		f.Add([]byte(seed))
	}
	h := fuzzServer(f)
	loads := 0
	f.Fuzz(func(t *testing.T, body []byte) {
		loads++
		name := fmt.Sprintf("m%d", loads)
		rec := post(h, "/v1/models/"+name, string(body))
		switch rec.Code {
		case http.StatusBadRequest, http.StatusConflict:
			return
		case http.StatusCreated:
		default:
			t.Fatalf("POST %q: status %d: %s", body, rec.Code, rec.Body)
		}
		list := httptest.NewRecorder()
		h.ServeHTTP(list, httptest.NewRequest(http.MethodGet, "/v1/models", nil))
		var out struct{ Models []ModelInfo }
		if err := json.Unmarshal(list.Body.Bytes(), &out); err != nil {
			t.Fatalf("GET /v1/models: %v", err)
		}
		if !slices.ContainsFunc(out.Models, func(m ModelInfo) bool { return m.Name == name }) {
			t.Fatalf("model %q loaded from %q but not listed", name, body)
		}
		del := httptest.NewRecorder()
		h.ServeHTTP(del, httptest.NewRequest(http.MethodDelete, "/v1/models/"+name, nil))
		if del.Code != http.StatusOK {
			t.Fatalf("DELETE %s: status %d", name, del.Code)
		}
	})
}

// FuzzInferBody sends each input as the body of POST
// /v1/models/toy/infer. Every body gets 200, 400, 404, 429 or 504, never
// a 500 or a panic, and a 200 body decodes as an InferResponse.
func FuzzInferBody(f *testing.F) {
	for _, seed := range append(badInferBodies,
		``, `{}`, ` {} `, `null`, `{"deadlineCycles":1}`, `{"arrivalCycle":1000000}`,
		`{"timeoutMillis":1}`, `{"timeoutMillis":-1,"deadlineCycles":-1}`, `{"arrivalCycle":-5}`) {
		f.Add([]byte(seed))
	}
	h := fuzzServer(f)
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
		var resp InferResponse
		if err := dec.Decode(&resp); err != nil {
			t.Fatalf("POST %q: 200 body %s: %v", body, rec.Body, err)
		}
	})
}
