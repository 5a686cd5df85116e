package serve

import (
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"pimflow/internal/graph"
	"pimflow/internal/models"
	"pimflow/internal/obs"
	"pimflow/internal/profcache"
	"pimflow/internal/runtime"
	"pimflow/internal/search"
	"pimflow/internal/verify"
)

// ModelSpec describes one model to load: a zoo model name, the offloading
// policy, and the slice of the machine to compile against. Zero channel
// fields take the policy defaults (the whole 32/16 machine).
type ModelSpec struct {
	// Name is the serving name; defaults to Model when empty.
	Name string `json:"name"`
	// Model is the model-zoo name ("mobilenet-v2", "toy", ...).
	Model string `json:"model"`
	// Policy is the offloading mechanism by paper name ("PIMFlow",
	// "Baseline", ...); defaults to PIMFlow.
	Policy string `json:"policy,omitempty"`
	// TotalChannels and PIMChannels select the resource slice the model
	// is compiled against; smaller slices lease fewer channel groups and
	// can overlap with other models on the machine.
	TotalChannels int `json:"totalChannels,omitempty"`
	PIMChannels   int `json:"pimChannels,omitempty"`
	// MaxBatch overrides the server's default coalescing limit for this
	// model (0: inherit).
	MaxBatch int `json:"maxBatch,omitempty"`
	// BatchWindowMillis overrides the server's wall-clock batching window
	// (0: inherit); BatchWindowCycles sets the virtual-time window a
	// VirtualQueue applies to trace replay (0: none).
	BatchWindowMillis int64 `json:"batchWindowMillis,omitempty"`
	BatchWindowCycles int64 `json:"batchWindowCycles,omitempty"`
	// SLO names the model's latency class: gold, silver, bronze or
	// best-effort ("" is best-effort).
	SLO string `json:"slo,omitempty"`
}

// LoadedModel is one compiled, verified, ready-to-serve model: the
// transformed graph, the search plan, the derived runtime configuration,
// and the warm solo execution report that placement and batching use.
type LoadedModel struct {
	Spec   ModelSpec
	Policy search.Policy
	Opts   search.Options
	Graph  *graph.Graph
	Plan   *search.Plan
	// Solo is the model's warm single-request execution report (virtual
	// offset 0); its duration is the solo latency the scheduler places,
	// and every lease charges it.
	Solo *runtime.Report
	// Demand is the channel-group footprint of one execution.
	Demand Demand
	// InitInterval is the batching initiation interval in cycles: the
	// busy time of the model's most contended device. A batch of B
	// requests streams through its lease in Solo duration plus
	// (B-1)*InitInterval — the steady-state throughput bound of a
	// pipelined schedule, which is what coalescing buys over B
	// back-to-back leases.
	InitInterval int64
	// CompileSeconds is the wall-clock cost of the load's compile step.
	CompileSeconds float64
	// Batch is the model's resolved continuous-batching policy (spec
	// overrides folded over the server defaults).
	Batch BatchPolicy
	// SLO is the model's resolved latency class; SLOTarget is its
	// completion target in virtual cycles (0: best-effort).
	SLO       SLOClass
	SLOTarget int64

	// record is what Solo's execution adds to a metrics registry; each
	// live batch applies it at its lease offset.
	record *runtime.MetricsRecord
}

// ModelInfo is the List entry for one loaded model.
type ModelInfo struct {
	Name           string  `json:"name"`
	Model          string  `json:"model"`
	Policy         string  `json:"policy"`
	Demand         Demand  `json:"demand"`
	SoloCycles     int64   `json:"soloCycles"`
	SoloMillis     float64 `json:"soloMillis"`
	InitInterval   int64   `json:"initIntervalCycles"`
	CompileSeconds float64 `json:"compileSeconds"`
	MaxBatch       int     `json:"maxBatch"`
	SLO            string  `json:"slo,omitempty"`
	SLOTarget      int64   `json:"sloTargetCycles,omitempty"`
}

// Info returns the model's listing under its serving name.
func (lm *LoadedModel) Info() ModelInfo {
	return ModelInfo{
		Name:           lm.Spec.Name,
		Model:          lm.Spec.Model,
		Policy:         lm.Policy.String(),
		Demand:         lm.Demand,
		SoloCycles:     lm.Solo.DurationCycles(),
		SoloMillis:     lm.Solo.Seconds * 1e3,
		InitInterval:   lm.InitInterval,
		CompileSeconds: lm.CompileSeconds,
		MaxBatch:       lm.Batch.MaxBatch,
		SLO:            lm.SLO.Name,
		SLOTarget:      lm.SLOTarget,
	}
}

// ServingDefaults are the server-level batching defaults a model spec's
// per-model overrides fold over at load time.
type ServingDefaults struct {
	MaxBatch    int
	BatchWindow time.Duration
}

func (d ServingDefaults) withDefaults() ServingDefaults {
	if d.MaxBatch <= 0 {
		d.MaxBatch = 1
	}
	return d
}

// Registry compiles and caches serving models. Loads are verify-gated
// (a model whose transformed graph or PIM command streams violate the
// static invariants never becomes servable) and deduplicated with
// singleflight semantics keyed by the compile input: serving names that
// share a zoo model, policy and channel slice share one compile, loaded
// or in flight. All compilations share one profile store, so a model
// reload or a sibling model with common layer shapes recalls profiles
// instead of re-simulating.
type Registry struct {
	machine  Machine
	profiles *profcache.Store
	metrics  *obs.Metrics
	trace    *obs.Trace
	defaults ServingDefaults

	mu       sync.Mutex
	models   map[string]*LoadedModel // guarded by mu
	inflight map[string]*loadFlight  // guarded by mu
}

// loadFlight is one serving name's load in progress.
type loadFlight struct {
	spec  ModelSpec
	input ModelSpec // guarded by mu; the compile input, once the spec checks pass
	done  chan struct{}
	lm    *LoadedModel
	err   error
}

// compileInput is everything of a load that reaches models.Build and
// search.Compile: the zoo model, the resolved policy and channel slice.
func compileInput(model string, opts search.Options) ModelSpec {
	return ModelSpec{Model: model, Policy: opts.Policy.String(), TotalChannels: opts.TotalChannels, PIMChannels: opts.PIMChannels}
}

// NewRegistry returns an empty registry over the machine. A nil profile
// store gets a private one; metrics and trace may be nil. defaults
// supplies the server-level batching and SLO policy that per-model spec
// overrides fold over.
func NewRegistry(m Machine, profiles *profcache.Store, metrics *obs.Metrics, trace *obs.Trace, defaults ServingDefaults) *Registry {
	if profiles == nil {
		profiles = profcache.New()
	}
	return &Registry{
		machine:  m,
		profiles: profiles,
		metrics:  metrics,
		trace:    trace,
		defaults: defaults.withDefaults(),
		models:   map[string]*LoadedModel{},
		inflight: map[string]*loadFlight{},
	}
}

// Profiles returns the registry's shared profile store.
func (r *Registry) Profiles() *profcache.Store { return r.profiles }

// Load compiles, verifies, and warms the model described by spec and
// makes it servable under spec.Name. Loading a name twice fails with
// ErrAlreadyLoaded, also while a load of the name with another spec is
// in flight; concurrent loads of one spec share a single load. A spec
// whose compile input is loaded, or compiling, under another name takes
// that compile and resolves only its own serving fields.
func (r *Registry) Load(spec ModelSpec) (*LoadedModel, error) {
	if spec.Name == "" {
		spec.Name = spec.Model
	}
	if spec.Name == "" {
		return nil, fmt.Errorf("serve: empty model spec")
	}

	r.mu.Lock()
	if _, ok := r.models[spec.Name]; ok {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrAlreadyLoaded, spec.Name)
	}
	if f, ok := r.inflight[spec.Name]; ok {
		r.mu.Unlock()
		if f.spec != spec {
			return nil, fmt.Errorf("%w: %q", ErrAlreadyLoaded, spec.Name)
		}
		<-f.done
		if f.err != nil {
			return nil, f.err
		}
		return f.lm, nil
	}
	f := &loadFlight{spec: spec, done: make(chan struct{})}
	r.inflight[spec.Name] = f
	r.mu.Unlock()

	f.lm, f.err = r.load(f)

	r.mu.Lock()
	delete(r.inflight, spec.Name)
	if f.err == nil {
		r.models[spec.Name] = f.lm
		r.metrics.Set("serve.models_loaded", float64(len(r.models)))
	}
	r.mu.Unlock()
	close(f.done)
	return f.lm, f.err
}

// load runs f's load pipeline: check the spec, then take another name's
// compile of the same input, or build, search, verify and warm.
func (r *Registry) load(f *loadFlight) (*LoadedModel, error) {
	spec := f.spec
	end := r.trace.Span("serve-load", spec.Name, "serve.load",
		map[string]any{"model": spec.Model, "policy": spec.Policy})
	started := time.Now()
	lm, source, err := r.loadInner(f)
	if err != nil {
		r.metrics.Inc("serve.model_load_errors")
		end(map[string]any{"error": err.Error()})
		return nil, err
	}
	lm.CompileSeconds = time.Since(started).Seconds()
	r.metrics.Inc("serve.model_loads")
	r.metrics.Observe("serve.model_load_seconds", lm.CompileSeconds)
	end(map[string]any{"soloCycles": lm.Solo.DurationCycles(), "demandGPU": lm.Demand.GPU, "demandPIM": lm.Demand.PIM,
		"sharedWith": source})
	if obs.Enabled(slog.LevelInfo) {
		obs.L().Info("serve: model loaded",
			"name", lm.Spec.Name, "model", lm.Spec.Model, "policy", lm.Policy.String(),
			"soloCycles", lm.Solo.DurationCycles(), "gpuChannels", lm.Demand.GPU,
			"pimChannels", lm.Demand.PIM, "compileSeconds", lm.CompileSeconds, "sharedWith", source)
	}
	return lm, nil
}

// loadInner returns f's model and the name whose compile it took, if any.
func (r *Registry) loadInner(f *loadFlight) (*LoadedModel, string, error) {
	spec := f.spec
	policyName := spec.Policy
	if policyName == "" {
		policyName = search.PolicyPIMFlow.String()
	}
	// The spec is checked whole before the expensive compile, so a typo
	// fails the load immediately, as ErrBadSpec.
	badSpec := func(err error) error { return fmt.Errorf("%w %q: %w", ErrBadSpec, spec.Name, err) }
	policy, err := ParsePolicy(policyName)
	if err != nil {
		return nil, "", badSpec(err)
	}
	slo, err := findSLO(spec.SLO)
	if err != nil {
		return nil, "", badSpec(err)
	}
	batch := BatchPolicy{
		MaxBatch:     r.defaults.MaxBatch,
		Window:       r.defaults.BatchWindow,
		WindowCycles: max(spec.BatchWindowCycles, 0),
	}
	if spec.MaxBatch > 0 {
		batch.MaxBatch = spec.MaxBatch
	}
	if spec.BatchWindowMillis > 0 {
		batch.Window = time.Duration(spec.BatchWindowMillis) * time.Millisecond
	}
	opts := search.DefaultOptions(policy)
	if spec.TotalChannels > 0 || spec.PIMChannels > 0 {
		total, pimCh := spec.TotalChannels, spec.PIMChannels
		if total <= 0 {
			total = opts.TotalChannels
		}
		if pimCh <= 0 {
			pimCh = opts.PIMChannels
		}
		opts = opts.WithResources(total, pimCh)
	}
	if err := opts.Validate(); err != nil {
		return nil, "", badSpec(err)
	}
	// The slice must fit the machine, or no placement will ever succeed:
	// its GPU part, and its PIM part when the policy may offload.
	demand := Demand{GPU: opts.GPUChannels()}
	if policy != search.PolicyBaseline {
		demand.PIM = opts.PIMChannels
	}
	if demand.GPU > r.machine.GPUChannels || demand.PIM > r.machine.PIMChannels {
		return nil, "", badSpec(fmt.Errorf("slice of %d GPU + %d PIM channels, machine has %d + %d",
			demand.GPU, demand.PIM, r.machine.GPUChannels, r.machine.PIMChannels))
	}

	// Another name's compile of the same input is this load's: the first
	// loaded one by name, or else a concurrent load that got this far (if
	// that one fails, this load compiles).
	in := compileInput(spec.Model, opts)
	var src *LoadedModel
	var flight *loadFlight
	r.mu.Lock()
	for name, lm := range r.models {
		if compileInput(lm.Spec.Model, lm.Opts) == in && (src == nil || name < src.Spec.Name) {
			src = lm
		}
	}
	for _, o := range r.inflight {
		if src == nil && o.input == in {
			flight = o
		}
	}
	f.input = in
	r.mu.Unlock()
	if flight != nil {
		<-flight.done
		src = flight.lm
	}
	if src != nil {
		lm := *src
		lm.Spec, lm.Batch, lm.SLO, lm.SLOTarget = spec, batch, slo, slo.Target(src.Solo.DurationCycles())
		return &lm, src.Spec.Name, nil
	}

	g, err := models.Build(spec.Model, models.Options{Light: true})
	if err != nil {
		return nil, "", badSpec(err)
	}
	opts.Profiles = r.profiles
	compiled, plan, err := search.Compile(g, opts)
	if err != nil {
		return nil, "", fmt.Errorf("serve: compile %q: %w", spec.Name, err)
	}

	// Verify gate: a model that fails the static graph invariants or the
	// PIM command-stream protocol never becomes servable.
	rt := opts.RuntimeConfig()
	if diags := verify.Compiled(compiled, rt.PIM, rt.Codegen); len(diags) > 0 {
		verify.Record(r.metrics, diags)
		return nil, "", fmt.Errorf("serve: model %q failed verification: %w", spec.Name, verify.AsError(diags))
	}

	// Shapes were inferred during Apply; check them here, so a graph
	// without them fails the load rather than making ExecuteAt clone it.
	if err := compiled.InferShapes(); err != nil {
		return nil, "", fmt.Errorf("serve: shapes of %q: %w", spec.Name, err)
	}

	// A plan that offloads nothing leases no PIM channels.
	demand.PIM = 0
	for _, n := range compiled.Nodes {
		if n.Exec.Device == graph.DevicePIM {
			demand.PIM = opts.PIMChannels
			break
		}
	}

	// Warm solo execution, the model's only one: the placement duration,
	// the batching initiation interval, the schedule and metrics record
	// every batch charges, and the first profile-store population all
	// come from this run.
	solo, record, err := runtime.ExecuteRecorded(compiled, rt)
	if err != nil {
		return nil, "", fmt.Errorf("serve: warmup of %q: %w", spec.Name, err)
	}
	ii := max(solo.GPUBusy, solo.PIMBusy, 1)
	ii = min(ii, max(solo.DurationCycles(), 1))

	return &LoadedModel{
		Spec: spec, Policy: policy, Opts: opts,
		Graph: compiled, Plan: plan, Solo: solo,
		Demand: demand, InitInterval: ii,
		Batch: batch, SLO: slo, SLOTarget: slo.Target(solo.DurationCycles()),
		record: record,
	}, "", nil
}

// Install makes an already-compiled model servable under its spec name
// without recompiling. The fleet placement layer uses it to fan a
// compile-once LoadedModel out to replica machines: serving only reads a
// loaded model (its solo report and metrics record), so sharing one
// LoadedModel across registries is safe. The model's demand must still
// fit this registry's machine, and installing over a live name, or one
// whose load is in flight, fails with ErrAlreadyLoaded.
func (r *Registry) Install(lm *LoadedModel) error {
	if lm == nil || lm.Spec.Name == "" {
		return fmt.Errorf("serve: install of empty model")
	}
	if lm.Demand.GPU > r.machine.GPUChannels || lm.Demand.PIM > r.machine.PIMChannels {
		return fmt.Errorf("serve: model %q demands %d GPU + %d PIM channels, machine has %d + %d",
			lm.Spec.Name, lm.Demand.GPU, lm.Demand.PIM, r.machine.GPUChannels, r.machine.PIMChannels)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.models[lm.Spec.Name]; ok || r.inflight[lm.Spec.Name] != nil {
		return fmt.Errorf("%w: %q", ErrAlreadyLoaded, lm.Spec.Name)
	}
	r.models[lm.Spec.Name] = lm
	r.metrics.Set("serve.models_loaded", float64(len(r.models)))
	return nil
}

// Get returns a loaded model by serving name.
func (r *Registry) Get(name string) (*LoadedModel, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	lm, ok := r.models[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotLoaded, name)
	}
	return lm, nil
}

// Unload removes a model from serving. In-flight requests holding the
// model finish normally.
func (r *Registry) Unload(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.models[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNotLoaded, name)
	}
	delete(r.models, name)
	r.metrics.Set("serve.models_loaded", float64(len(r.models)))
	r.metrics.Inc("serve.model_unloads")
	return nil
}

// List returns the loaded models sorted by serving name.
func (r *Registry) List() []ModelInfo {
	r.mu.Lock()
	infos := make([]ModelInfo, 0, len(r.models))
	for _, lm := range r.models {
		infos = append(infos, lm.Info())
	}
	r.mu.Unlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}
