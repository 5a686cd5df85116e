package fleet

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

	"pimflow/internal/obs"
	"pimflow/internal/serve"
	"pimflow/internal/verify"
)

// deployBody is the JSON body of POST /v1/models/{name}: a serve
// ModelSpec plus the fleet-level replica count and lazy flag.
type deployBody struct {
	serve.ModelSpec
	// Replicas is the desired replica count (distinct machines; <=0: 1).
	Replicas int `json:"replicas,omitempty"`
	// Lazy registers without placing: the first routed request triggers
	// the on-demand load.
	Lazy bool `json:"lazy,omitempty"`
}

// inferBody is the JSON body of the infer endpoints.
type inferBody struct {
	// Cond is the Switch-node routing condition.
	Cond string `json:"cond,omitempty"`
	// DeadlineCycles applies a virtual-time deadline to every hop.
	DeadlineCycles int64 `json:"deadlineCycles,omitempty"`
	// TimeoutMillis bounds wall-clock residence via a context deadline.
	TimeoutMillis int64 `json:"timeoutMillis,omitempty"`
}

// errorBody is the JSON error envelope; DeadlineViolation flags a
// request refused for its virtual deadline (serve.ErrDeadlineViolation).
type errorBody struct {
	Error             string `json:"error"`
	DeadlineViolation bool   `json:"deadlineViolation,omitempty"`
}

// MachineInfo is one machine's listing in GET /v1/machines: its shape,
// its active placements, and its serving state — the admission queue's
// depth, the scheduler's leases and frontier, and, when request logging
// is on, each model's per-stage latency quantiles.
type MachineInfo struct {
	Name             string                          `json:"name"`
	GPUChannels      int                             `json:"gpuChannels"`
	PIMChannels      int                             `json:"pimChannels"`
	Draining         bool                            `json:"draining"`
	Placements       []verify.FleetPlacement         `json:"placements,omitempty"`
	QueueDepth       int                             `json:"queueDepth"`
	Scheduler        serve.SchedulerStats            `json:"scheduler"`
	LatencyBreakdown map[string]serve.StageBreakdown `json:"latencyBreakdown,omitempty"`
}

// Handler returns the fleet's HTTP API; a one-machine fleet is the
// single-machine server:
//
//	GET    /healthz                            fleet liveness + per-machine drain state
//	GET    /metrics                            router-tier metrics (text; JSON via Accept)
//	GET    /metrics.json                       the same registry as JSON
//	GET    /v1/machines                        machines: placements, queue, scheduler, latency breakdown
//	GET    /v1/machines/{name}/metrics         one machine's serving metrics (text; JSON via Accept)
//	GET    /v1/machines/{name}/debug/requests  one machine's request-lifecycle ring (model/slo/outcome/n filters)
//	GET    /v1/models                          fleet deployments, each loaded model's info
//	POST   /v1/models/{name}                   deploy (deployBody; lazy registers only)
//	DELETE /v1/models/{name}                   undeploy everywhere
//	POST   /v1/models/{name}/scale             set the replica count ({"replicas": N})
//	POST   /v1/models/{name}/infer             route one inference (inferBody)
//	GET    /v1/graphs                          registered inference graphs
//	POST   /v1/graphs/{name}                   register a graph (verify.FleetGraph body)
//	POST   /v1/graphs/{name}/infer             route one request through the graph
func (f *Fleet) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", f.handleHealth)
	mux.HandleFunc("GET /metrics", f.handleMetrics)
	mux.HandleFunc("GET /metrics.json", f.handleMetricsJSON)
	mux.HandleFunc("GET /v1/machines", f.handleMachines)
	mux.HandleFunc("GET /v1/machines/{name}/metrics", f.handleMachineMetrics)
	mux.HandleFunc("GET /v1/machines/{name}/debug/requests", f.handleDebugRequests)
	mux.HandleFunc("GET /v1/models", f.handleModels)
	mux.HandleFunc("POST /v1/models/{name}", f.handleDeploy)
	mux.HandleFunc("DELETE /v1/models/{name}", f.handleUndeploy)
	mux.HandleFunc("POST /v1/models/{name}/scale", f.handleScale)
	mux.HandleFunc("POST /v1/models/{name}/infer", f.handleInferModel)
	mux.HandleFunc("GET /v1/graphs", f.handleGraphs)
	mux.HandleFunc("POST /v1/graphs/{name}", f.handleRegisterGraph)
	mux.HandleFunc("POST /v1/graphs/{name}/infer", f.handleInferGraph)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// statusOf maps fleet- and machine-tier errors onto HTTP status codes.
func statusOf(err error) int {
	switch {
	case errors.Is(err, ErrUnknownModel), errors.Is(err, ErrUnknownGraph),
		errors.Is(err, serve.ErrNotLoaded):
		return http.StatusNotFound
	case errors.Is(err, ErrAlreadyDeployed), errors.Is(err, ErrNameTaken), errors.Is(err, serve.ErrAlreadyLoaded):
		return http.StatusConflict
	case errors.Is(err, ErrNoCapacity):
		return http.StatusInsufficientStorage
	case errors.Is(err, ErrNoSwitchMatch), errors.Is(err, ErrTooManyReplicas), errors.Is(err, serve.ErrBadSpec):
		return http.StatusBadRequest
	case errors.Is(err, serve.ErrQueueFull), errors.Is(err, serve.ErrShed):
		return http.StatusTooManyRequests
	case errors.Is(err, serve.ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, serve.ErrDeadlineViolation), errors.Is(err, context.DeadlineExceeded):
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
		DeadlineViolation: errors.Is(err, serve.ErrDeadlineViolation),
	})
}

func (f *Fleet) handleHealth(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	draining := 0
	for _, m := range f.machines {
		if m.srv.Draining() {
			draining++
		}
	}
	if draining > 0 {
		status, code = "draining", http.StatusServiceUnavailable
	}
	f.mu.Lock()
	models, graphs := len(f.deployments), len(f.graphs)
	f.mu.Unlock()
	writeJSON(w, code, map[string]any{
		"status":        status,
		"machines":      f.Size(),
		"draining":      draining,
		"models":        models,
		"graphs":        graphs,
		"uptimeSeconds": time.Since(f.started).Seconds(),
	})
}

func (f *Fleet) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeMetrics(w, r, f.cfg.Metrics)
}

func (f *Fleet) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = f.cfg.Metrics.WriteJSON(w)
}

// writeMetrics writes a registry as Prometheus-style text, or as JSON
// when the request accepts application/json.
func writeMetrics(w http.ResponseWriter, r *http.Request, m *obs.Metrics) {
	if strings.Contains(r.Header.Get("Accept"), "application/json") {
		w.Header().Set("Content-Type", "application/json")
		_ = m.WriteJSON(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = m.WriteText(w)
}

func (f *Fleet) handleMachines(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	byMachine := map[string][]verify.FleetPlacement{}
	for _, p := range f.placements {
		if p.Active {
			byMachine[p.Machine] = append(byMachine[p.Machine], p)
		}
	}
	f.mu.Unlock()
	var infos []MachineInfo
	for _, m := range f.machines {
		infos = append(infos, MachineInfo{
			Name:             m.name,
			GPUChannels:      m.srv.Machine().GPUChannels,
			PIMChannels:      m.srv.Machine().PIMChannels,
			Draining:         m.srv.Draining(),
			Placements:       byMachine[m.name],
			QueueDepth:       m.srv.QueueDepth(),
			Scheduler:        m.srv.Scheduler().Stats(),
			LatencyBreakdown: m.srv.LatencyBreakdown(),
		})
	}
	writeJSON(w, http.StatusOK, infos)
}

// machineOf resolves the path's machine, answering 404 when it names
// none.
func (f *Fleet) machineOf(w http.ResponseWriter, r *http.Request) *machine {
	for _, m := range f.machines {
		if m.name == r.PathValue("name") {
			return m
		}
	}
	writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown machine " + r.PathValue("name")})
	return nil
}

func (f *Fleet) handleMachineMetrics(w http.ResponseWriter, r *http.Request) {
	if m := f.machineOf(w, r); m != nil {
		writeMetrics(w, r, m.metrics)
	}
}

// handleDebugRequests serves one machine's lifecycle ring, newest first.
// Filters: ?model=, ?slo=, ?outcome= (exact match), ?n= (cap). 404 when
// request logging is off (Config.RequestLog == 0), so probes can tell
// "off" from "no traffic yet".
func (f *Fleet) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	m := f.machineOf(w, r)
	if m == nil {
		return
	}
	lc := m.srv.Lifecycle()
	if lc == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "fleet: request logging disabled (Config.RequestLog)"})
		return
	}
	q := r.URL.Query()
	filter := serve.SpanFilter{Model: q.Get("model"), SLO: q.Get("slo"), Outcome: q.Get("outcome")}
	if v := q.Get("n"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "fleet: bad n parameter"})
			return
		}
		filter.N = n
	}
	spans := lc.Recent(filter)
	writeJSON(w, http.StatusOK, map[string]any{
		"total":    lc.Total(),
		"returned": len(spans),
		"requests": spans,
	})
}

func (f *Fleet) handleModels(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, f.Deployments())
}

func (f *Fleet) handleDeploy(w http.ResponseWriter, r *http.Request) {
	var body deployBody
	err := decodeBody(w, r, &body)
	if err == nil && body.BatchWindowCycles != 0 { // a replay setting: live batches form under wall windows only
		err = errors.New("fleet: batchWindowCycles applies to trace replay only; a live deploy sets batchWindowMillis")
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	spec := body.ModelSpec
	spec.Name = r.PathValue("name")
	if body.Lazy {
		err = f.Register(spec, body.Replicas)
	} else {
		err = f.Deploy(spec, body.Replicas)
	}
	if err != nil {
		writeError(w, err)
		return
	}
	for _, d := range f.Deployments() {
		if d.Name == spec.Name {
			writeJSON(w, http.StatusCreated, d)
			return
		}
	}
	writeJSON(w, http.StatusCreated, map[string]string{"name": spec.Name})
}

func (f *Fleet) handleUndeploy(w http.ResponseWriter, r *http.Request) {
	if err := f.Undeploy(r.PathValue("name")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (f *Fleet) handleScale(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Replicas int `json:"replicas"`
	}
	if err := decodeBody(w, r, &body); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	if err := f.Scale(r.PathValue("name"), body.Replicas); err != nil {
		writeError(w, err)
		return
	}
	for _, d := range f.Deployments() {
		if d.Name == r.PathValue("name") {
			writeJSON(w, http.StatusOK, d)
			return
		}
	}
	w.WriteHeader(http.StatusOK)
}

func (f *Fleet) infer(w http.ResponseWriter, r *http.Request, req Request) {
	var body inferBody
	err := decodeBody(w, r, &body)
	ctx, cancel := r.Context(), context.CancelFunc(nil)
	if err == nil {
		ctx, cancel, err = withTimeoutMillis(ctx, body.TimeoutMillis)
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	defer cancel()
	req.Cond = body.Cond
	req.DeadlineCycles = body.DeadlineCycles
	resp, err := f.Infer(ctx, req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (f *Fleet) handleInferModel(w http.ResponseWriter, r *http.Request) {
	f.infer(w, r, Request{Model: r.PathValue("name")})
}

func (f *Fleet) handleGraphs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, f.Graphs())
}

func (f *Fleet) handleRegisterGraph(w http.ResponseWriter, r *http.Request) {
	var g Graph
	if err := decodeBody(w, r, &g); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	g.Name = r.PathValue("name")
	if err := f.RegisterGraph(g); err != nil {
		code := http.StatusBadRequest // a graph that fails verification
		if errors.Is(err, ErrUnknownModel) || errors.Is(err, ErrNameTaken) {
			code = statusOf(err)
		}
		writeJSON(w, code, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusCreated, g)
}

func (f *Fleet) handleInferGraph(w http.ResponseWriter, r *http.Request) {
	f.infer(w, r, Request{Graph: r.PathValue("name")})
}

// maxBodyBytes bounds a request body.
const maxBodyBytes = 1 << 20

// decodeBody parses the request's optional JSON body into v: an empty
// body leaves v zero, and a body over 1 MiB, or with anything but
// whitespace after its value, is an error.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(v); err != nil && !errors.Is(err, io.EOF) {
		return fmt.Errorf("fleet: bad request body: %w", err)
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return fmt.Errorf("fleet: bad request body: data after its JSON value")
	}
	return nil
}

// withTimeoutMillis bounds ctx by a body's timeoutMillis: no bound when it
// is zero or less, an error when it does not fit a time.Duration.
func withTimeoutMillis(ctx context.Context, ms int64) (context.Context, context.CancelFunc, error) {
	switch {
	case ms <= 0:
		return ctx, func() {}, nil
	case ms > math.MaxInt64/int64(time.Millisecond):
		return nil, nil, fmt.Errorf("fleet: timeoutMillis %d overflows a duration", ms)
	}
	ctx, cancel := context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
	return ctx, cancel, nil
}
