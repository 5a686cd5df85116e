// Package fleet composes N simulated PIM-GPU machines — each a full
// serving stack (registry, admission queue, continuous batcher,
// virtual-time scheduler) — behind a router tier. The router owns two
// things the single-machine stack cannot express:
//
//   - Placement. Models are compiled once (one Registry acts as the
//     compile cache over a shared profile store) and their channel-group
//     demand is bin-packed across machines: hot models replicate onto
//     distinct machines, cold models pack beside them, and — modelmesh
//     style — a request for a registered-but-unplaced model triggers an
//     on-demand load, evicting least-recently-used models when a machine
//     is full.
//   - Inference-graph routing. Requests may name a graph of kserve-style
//     Sequence / Ensemble / Splitter / Switch nodes instead of a single
//     model, so one request traverses multiple models on multiple
//     machines with per-hop lifecycle spans.
//
// All latency lives on the shared virtual timeline: every machine's
// cycles are in one global clock domain, a Sequence hop's arrival is
// pinned to its predecessor's completion, and the deterministic replay
// (Replay) reports identical percentiles for identical seeded scenarios
// — the property that makes placement policies testable (adding a
// replica never increases p99). When Config.Certify is on, every
// machine records its SR-* schedule certificate and the router records
// the FL-* fleet certificate (placements, graphs, hops) for
// verify.Fleet.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pimflow/internal/obs"
	"pimflow/internal/profcache"
	"pimflow/internal/serve"
	"pimflow/internal/verify"
)

// Re-exported inference-graph types: the registration format is exactly
// what the certificate records, so graphs verify as registered.
type (
	// Graph is one inference graph: named nodes and a root.
	Graph = verify.FleetGraph
	// GraphNode is one graph node ("sequence", "ensemble", "splitter",
	// "switch").
	GraphNode = verify.FleetGraphNode
	// GraphStep is one step of a node: a model hop or a nested node.
	GraphStep = verify.FleetGraphStep
)

// Errors of the fleet layer (machine-level errors pass through from
// serve unchanged).
var (
	ErrUnknownModel    = errors.New("fleet: model not deployed")
	ErrUnknownGraph    = errors.New("fleet: graph not registered")
	ErrAlreadyDeployed = errors.New("fleet: model already deployed")
	// ErrNameTaken rejects a graph or model named like a registered
	// graph or a deployed model: models and graphs share one namespace,
	// because a request names either.
	ErrNameTaken       = errors.New("fleet: name already taken")
	ErrNoCapacity      = errors.New("fleet: no machine can hold the model")
	ErrNoSwitchMatch   = errors.New("fleet: no switch step matches the request condition")
	ErrTooManyReplicas = errors.New("fleet: replica count exceeds the machine count (replicas sit on distinct machines)")
)

// Config parameterizes a Fleet.
type Config struct {
	// Machines is the machine count (default 2); Machine is every
	// machine's shape (zero value takes the paper's 16+16 default).
	Machines int
	Machine  serve.Machine
	// QueueDepth, Admission, and RequestLog configure each machine's
	// serve stack (serve.Config semantics); RequestLog sizes the ring
	// GET /v1/machines/{name}/debug/requests serves, whose request IDs
	// carry the machine's name ("m0/r000001").
	QueueDepth int
	Admission  serve.AdmissionPolicy
	RequestLog int
	// MaxBatch, BatchWindow, and SLOClasses are the per-machine serving
	// defaults model specs fold over.
	MaxBatch    int
	BatchWindow time.Duration
	SLOClasses  []serve.SLOClass
	// Metrics receives the router-tier counters; per-machine serving
	// metrics live in per-machine registries (Machine(i).Metrics(), and
	// GET /v1/machines/{name}/metrics) so machines never collide on the
	// serve.* keys. Nil gets a private registry.
	Metrics *obs.Metrics
	// Trace, when non-nil, is shared by the router (wall-clock routing
	// lanes) and every machine (simulated-timeline spans).
	Trace *obs.Trace
	// Certify records the FL-* fleet certificate and every machine's
	// SR-* schedule certificate (see Fleet.Certificate). Meant for
	// bounded runs, like serve.Config.Certify.
	Certify bool
	// Seed drives the Splitter's deterministic weighted hash.
	Seed int64
	// TimeShare lets placement overcommit a machine's channel groups
	// when no machine fits even after eviction: the placement is flagged
	// in the certificate and its safety is proven dynamically by the
	// machine's SR-OVERLAP check (models time-share the channel groups
	// through the scheduler instead of owning them).
	TimeShare bool
}

func (c Config) withDefaults() Config {
	if c.Machines <= 0 {
		c.Machines = 2
	}
	if c.Machine == (serve.Machine{}) {
		c.Machine = serve.DefaultMachine()
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewMetrics()
	}
	return c
}

// machine is one serving stack plus its identity and its router-tier
// hop counter, fleet.hops{machine=name}.
type machine struct {
	name    string
	srv     *serve.Server
	metrics *obs.Metrics
	hops    *obs.Counter
	// outstanding counts the live hops routed here and not yet
	// answered: the load resolveHop balances.
	outstanding atomic.Int64
}

// deployment is one model's fleet-level state: the desired spec and
// replica count, the compiled model (nil until first placement), and
// the machines currently holding a replica.
type deployment struct {
	spec serve.ModelSpec
	want int
	lm   *serve.LoadedModel
	// replicas are the machine indices holding the model, sorted.
	replicas []int
	// lastUsed is the route sequence number of the model's most recent
	// hop — the LRU clock for on-demand eviction (virtual-time friendly:
	// no wall clock).
	lastUsed int64
	// turn is where the next live hop starts its replica scan.
	turn int
}

// Fleet is N machines behind the placement and routing tier.
type Fleet struct {
	cfg      Config
	machines []*machine
	profiles *profcache.Store
	// compiler is the compile-once cache: models compile here (against
	// the uniform machine shape) and fan out to machine registries via
	// Install, sharing one profile store and one LoadedModel.
	compiler *serve.Registry

	// Router-tier series every hop or route updates, resolved once:
	// fleet.hops and fleet.route_latency_cycles.
	hops         *obs.Counter
	routeLatency *obs.Histogram

	mu          sync.Mutex
	deployments map[string]*deployment         // guarded by mu
	graphs      map[string]Graph               // guarded by mu
	placements  []verify.FleetPlacement        // guarded by mu; append-only log
	hopLog      serve.CertLog[verify.FleetHop] // guarded by mu; Certify only
	routeSeq    int64                          // guarded by mu
	started     time.Time
}

// New builds and starts a fleet: cfg.Machines serving stacks plus the
// router state. Each machine gets its own metrics registry; the
// router's counters land in cfg.Metrics under fleet.* keys.
func New(cfg Config) (*Fleet, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Machine.Validate(); err != nil {
		return nil, err
	}
	f := &Fleet{
		cfg:          cfg,
		profiles:     profcache.New(),
		hops:         cfg.Metrics.CounterOf("fleet.hops"),
		routeLatency: cfg.Metrics.HistogramOf("fleet.route_latency_cycles"),
		deployments:  map[string]*deployment{},
		graphs:       map[string]Graph{},
		started:      time.Now(),
	}
	f.compiler = serve.NewRegistry(cfg.Machine, f.profiles, cfg.Metrics, cfg.Trace, serve.ServingDefaults{
		MaxBatch:    cfg.MaxBatch,
		BatchWindow: cfg.BatchWindow,
		SLOClasses:  cfg.SLOClasses,
	})
	for i := 0; i < cfg.Machines; i++ {
		metrics := obs.NewMetrics()
		srv, err := serve.NewServer(serve.Config{
			Machine:     cfg.Machine,
			QueueDepth:  cfg.QueueDepth,
			Admission:   cfg.Admission,
			MaxBatch:    cfg.MaxBatch,
			BatchWindow: cfg.BatchWindow,
			SLOClasses:  cfg.SLOClasses,
			Profiles:    f.profiles,
			Metrics:     metrics,
			Trace:       cfg.Trace,
			RequestLog:  cfg.RequestLog,
			Certify:     cfg.Certify,
		})
		if err != nil {
			for _, m := range f.machines {
				_ = m.srv.Shutdown(context.Background())
			}
			return nil, err
		}
		name := fmt.Sprintf("m%d", i)
		srv.Lifecycle().SetIDPrefix(name + "/")
		f.machines = append(f.machines, &machine{
			name:    name,
			srv:     srv,
			metrics: metrics,
			hops:    cfg.Metrics.CounterOf(obs.LabeledKey("fleet.hops", "machine", name)),
		})
	}
	cfg.Metrics.Set("fleet.machines", float64(len(f.machines)))
	return f, nil
}

// Size returns the machine count.
func (f *Fleet) Size() int { return len(f.machines) }

// MachineNames returns the machine names in index order.
func (f *Fleet) MachineNames() []string {
	names := make([]string, len(f.machines))
	for i, m := range f.machines {
		names[i] = m.name
	}
	return names
}

// Machine returns one machine's serving stack by index (tests and the
// HTTP layer reach through it read-mostly).
func (f *Fleet) Machine(i int) *serve.Server { return f.machines[i].srv }

// Metrics returns the router-tier metrics registry.
func (f *Fleet) Metrics() *obs.Metrics { return f.cfg.Metrics }

// Profiles returns the profile store every compile of the fleet shares.
func (f *Fleet) Profiles() *profcache.Store { return f.profiles }

// Certifying reports whether the fleet records certificates.
func (f *Fleet) Certifying() bool { return f.cfg.Certify }

// Shutdown drains every machine. Each machine finishes its in-flight
// work; the router stops accepting once the machines are draining.
func (f *Fleet) Shutdown(ctx context.Context) error {
	var firstErr error
	for _, m := range f.machines {
		if err := m.srv.Shutdown(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Certificate assembles the fleet certificate: machine set, placement
// log, registered graphs, recorded hops, and each machine's schedule
// certificate (when the machines are certifying).
func (f *Fleet) Certificate() verify.FleetCertificate {
	f.mu.Lock()
	defer f.mu.Unlock()
	c := verify.FleetCertificate{
		Placements: append([]verify.FleetPlacement(nil), f.placements...),
		Hops:       f.hopLog.Rows(),
	}
	for _, m := range f.machines {
		c.Machines = append(c.Machines, verify.FleetMachine{
			Name:        m.name,
			GPUChannels: m.srv.Machine().GPUChannels,
			PIMChannels: m.srv.Machine().PIMChannels,
		})
	}
	for _, name := range sortedKeys(f.graphs) {
		c.Graphs = append(c.Graphs, f.graphs[name])
	}
	if f.cfg.Certify {
		c.Schedules = map[string]verify.ScheduleCertificate{}
		for _, m := range f.machines {
			if m.srv.Certifying() {
				c.Schedules[m.name] = m.srv.Certificate()
			}
		}
	}
	return c
}

// Verify checks the fleet certificate — FL-* rules plus every machine's
// SR-* schedule — and returns the violations.
func (f *Fleet) Verify() []verify.Diagnostic {
	diags := verify.Fleet(f.Certificate())
	verify.Record(f.cfg.Metrics, diags)
	return diags
}
