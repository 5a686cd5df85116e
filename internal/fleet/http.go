package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"time"

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

type errorBody struct {
	Error string `json:"error"`
}

// MachineInfo is one machine's listing in GET /v1/machines.
type MachineInfo struct {
	Name        string                  `json:"name"`
	GPUChannels int                     `json:"gpuChannels"`
	PIMChannels int                     `json:"pimChannels"`
	Draining    bool                    `json:"draining"`
	Placements  []verify.FleetPlacement `json:"placements,omitempty"`
}

// Handler returns the fleet's HTTP API:
//
//	GET    /healthz                   fleet liveness + per-machine drain state
//	GET    /metrics                   router-tier metrics (text; JSON via Accept)
//	GET    /metrics.json              the same registry as JSON
//	GET    /v1/machines               machine list with active placements
//	GET    /v1/machines/{name}/metrics  one machine's serving metrics
//	GET    /v1/models                 fleet deployments
//	POST   /v1/models/{name}          deploy (deployBody; lazy registers only)
//	DELETE /v1/models/{name}          undeploy everywhere
//	POST   /v1/models/{name}/scale    set the replica count ({"replicas": N})
//	POST   /v1/models/{name}/infer    route one inference (inferBody)
//	GET    /v1/graphs                 registered inference graphs
//	POST   /v1/graphs/{name}          register a graph (verify.FleetGraph body)
//	POST   /v1/graphs/{name}/infer    route one request through the graph
func (f *Fleet) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", f.handleHealth)
	mux.HandleFunc("GET /metrics", f.handleMetrics)
	mux.HandleFunc("GET /metrics.json", f.handleMetricsJSON)
	mux.HandleFunc("GET /v1/machines", f.handleMachines)
	mux.HandleFunc("GET /v1/machines/{name}/metrics", f.handleMachineMetrics)
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
	writeJSON(w, statusOf(err), errorBody{Error: err.Error()})
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
	if strings.Contains(r.Header.Get("Accept"), "application/json") {
		f.handleMetricsJSON(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = f.cfg.Metrics.WriteText(w)
}

func (f *Fleet) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = f.cfg.Metrics.WriteJSON(w)
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
			Name:        m.name,
			GPUChannels: m.srv.Machine().GPUChannels,
			PIMChannels: m.srv.Machine().PIMChannels,
			Draining:    m.srv.Draining(),
			Placements:  byMachine[m.name],
		})
	}
	writeJSON(w, http.StatusOK, infos)
}

func (f *Fleet) handleMachineMetrics(w http.ResponseWriter, r *http.Request) {
	mi := f.machineIndex(r.PathValue("name"))
	if mi < 0 {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown machine " + r.PathValue("name")})
		return
	}
	if strings.Contains(r.Header.Get("Accept"), "application/json") {
		w.Header().Set("Content-Type", "application/json")
		_ = f.machines[mi].metrics.WriteJSON(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = f.machines[mi].metrics.WriteText(w)
}

func (f *Fleet) handleModels(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, f.Deployments())
}

func (f *Fleet) handleDeploy(w http.ResponseWriter, r *http.Request) {
	var body deployBody
	if err := serve.DecodeBody(w, r, &body); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	spec := body.ModelSpec
	spec.Name = r.PathValue("name")
	var err error
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
	if err := serve.DecodeBody(w, r, &body); err != nil {
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
	err := serve.DecodeBody(w, r, &body)
	ctx, cancel := r.Context(), context.CancelFunc(nil)
	if err == nil {
		ctx, cancel, err = serve.WithTimeoutMillis(ctx, body.TimeoutMillis)
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
	if err := serve.DecodeBody(w, r, &g); err != nil {
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
