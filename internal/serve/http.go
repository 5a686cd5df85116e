package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// inferBody is the JSON body of POST /v1/models/{name}/infer. An empty
// body is a plain inference with no deadlines.
type inferBody struct {
	// DeadlineCycles is the virtual-time deadline (see
	// InferRequest.DeadlineCycles).
	DeadlineCycles int64 `json:"deadlineCycles,omitempty"`
	// TimeoutMillis bounds the request's wall-clock residence (queueing
	// plus processing) via a context deadline.
	TimeoutMillis int64 `json:"timeoutMillis,omitempty"`
	// ArrivalCycle pins the request's virtual arrival stamp (see
	// InferRequest.ArrivalCycle).
	ArrivalCycle int64 `json:"arrivalCycle,omitempty"`
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error             string `json:"error"`
	DeadlineViolation bool   `json:"deadlineViolation,omitempty"`
}

// Handler returns the server's HTTP API:
//
//	GET    /healthz                  liveness + drain state + latency breakdown
//	GET    /metrics                  Prometheus-style text dump (JSON with Accept: application/json)
//	GET    /metrics.json             the same registry as JSON
//	GET    /debug/requests           request-lifecycle ring (model/slo/outcome/n filters)
//	GET    /v1/models                list loaded models
//	POST   /v1/models/{name}         load a model (ModelSpec body)
//	DELETE /v1/models/{name}         unload a model
//	POST   /v1/models/{name}/infer   run one inference (inferBody body)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /metrics.json", s.handleMetricsJSON)
	mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
	mux.HandleFunc("GET /v1/models", s.handleList)
	mux.HandleFunc("POST /v1/models/{name}", s.handleLoad)
	mux.HandleFunc("DELETE /v1/models/{name}", s.handleUnload)
	mux.HandleFunc("POST /v1/models/{name}/infer", s.handleInfer)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// statusOf maps request-path errors onto HTTP status codes.
func statusOf(err error) int {
	switch {
	case errors.Is(err, ErrBadSpec):
		return http.StatusBadRequest
	case errors.Is(err, ErrNotLoaded):
		return http.StatusNotFound
	case errors.Is(err, ErrAlreadyLoaded):
		return http.StatusConflict
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrShed):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrDeadlineViolation),
		errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request (nginx convention)
	default:
		return http.StatusInternalServerError
	}
}

func writeError(w http.ResponseWriter, err error) {
	writeJSON(w, statusOf(err), errorBody{
		Error:             err.Error(),
		DeadlineViolation: errors.Is(err, ErrDeadlineViolation),
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	if s.Draining() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	body := map[string]any{
		"status":        status,
		"models":        s.registry.Len(),
		"queueDepth":    s.queue.depth(),
		"leasesActive":  s.sched.InFlight(),
		"scheduler":     s.sched.Stats(),
		"uptimeSeconds": time.Since(s.started).Seconds(),
	}
	if bd := s.LatencyBreakdown(); len(bd) > 0 {
		body["latencyBreakdown"] = bd
	}
	writeJSON(w, code, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if strings.Contains(r.Header.Get("Accept"), "application/json") {
		s.handleMetricsJSON(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.cfg.Metrics.WriteText(w)
}

func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = s.cfg.Metrics.WriteJSON(w)
}

// handleDebugRequests serves the lifecycle ring, newest first. Filters:
// ?model=, ?slo=, ?outcome= (exact match), ?n= (cap). 404 when request
// logging is off (Config.RequestLog == 0) so probes can tell "off" from
// "no traffic yet".
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	lc := s.lifecycle
	if lc == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "serve: request logging disabled (Config.RequestLog)"})
		return
	}
	f := SpanFilter{
		Model:   r.URL.Query().Get("model"),
		SLO:     r.URL.Query().Get("slo"),
		Outcome: r.URL.Query().Get("outcome"),
	}
	if v := r.URL.Query().Get("n"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "serve: bad n parameter"})
			return
		}
		f.N = n
	}
	spans := lc.Recent(f)
	writeJSON(w, http.StatusOK, map[string]any{
		"total":    lc.Total(),
		"returned": len(spans),
		"requests": spans,
	})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"models": s.registry.List()})
}

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	var spec ModelSpec
	if err := DecodeBody(w, r, &spec); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	spec.Name = r.PathValue("name")
	if spec.Model == "" {
		spec.Model = spec.Name
	}
	lm, err := s.registry.Load(spec)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"name":            lm.Spec.Name,
		"model":           lm.Spec.Model,
		"policy":          lm.Policy.String(),
		"soloCycles":      lm.Solo.DurationCycles(),
		"demand":          lm.Demand,
		"maxBatch":        lm.Batch.MaxBatch,
		"slo":             lm.SLO.Name,
		"sloTargetCycles": lm.SLOTarget,
	})
}

func (s *Server) handleUnload(w http.ResponseWriter, r *http.Request) {
	if err := s.registry.Unload(r.PathValue("name")); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"unloaded": r.PathValue("name")})
}

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	var body inferBody
	err := DecodeBody(w, r, &body)
	ctx, cancel := r.Context(), context.CancelFunc(nil)
	if err == nil {
		ctx, cancel, err = WithTimeoutMillis(ctx, body.TimeoutMillis)
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	defer cancel()
	resp, err := s.Infer(ctx, InferRequest{
		Model:          r.PathValue("name"),
		DeadlineCycles: body.DeadlineCycles,
		ArrivalCycle:   body.ArrivalCycle,
	})
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// maxBodyBytes bounds a request body.
const maxBodyBytes = 1 << 20

// DecodeBody parses the request's optional JSON body into v, for the
// server's and the fleet's handlers alike: an empty body leaves v zero,
// and a body over 1 MiB, or with anything but whitespace after its value,
// is an error.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(v); err != nil && !errors.Is(err, io.EOF) {
		return fmt.Errorf("serve: bad request body: %w", err)
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return fmt.Errorf("serve: bad request body: data after its JSON value")
	}
	return nil
}

// WithTimeoutMillis bounds ctx by a body's timeoutMillis: no bound when it
// is zero or less, an error when it does not fit a time.Duration.
func WithTimeoutMillis(ctx context.Context, ms int64) (context.Context, context.CancelFunc, error) {
	switch {
	case ms <= 0:
		return ctx, func() {}, nil
	case ms > math.MaxInt64/int64(time.Millisecond):
		return nil, nil, fmt.Errorf("serve: timeoutMillis %d overflows a duration", ms)
	}
	ctx, cancel := context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
	return ctx, cancel, nil
}
