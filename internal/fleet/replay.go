package fleet

import (
	"context"
	"errors"
	"fmt"
	"time"

	"pimflow/internal/load"
	"pimflow/internal/obs"
	"pimflow/internal/serve"
	"pimflow/internal/verify"
)

// Scenario is one reproducible fleet workload: the embedded
// load.Scenario drives the trace (its Models are the traffic draw — an
// entry may name a registered Graph instead of a model), Backends are
// models deployed for graph hops but absent from the draw, Replicas
// overrides per-model replica counts, and Machines sizes the fleet.
type Scenario struct {
	load.Scenario
	// Machines is the fleet size (default 1 — the configuration whose
	// replay is load.Replay on one server).
	Machines int `json:"machines,omitempty"`
	// Replicas maps model name to desired replica count (default 1).
	Replicas map[string]int `json:"replicas,omitempty"`
	// Backends are deployed models that receive graph hops only.
	Backends []load.ModelLoad `json:"backends,omitempty"`
	// Graphs are registered before the replay; a traffic entry naming
	// one routes every trace request for it through the graph.
	Graphs []Graph `json:"graphs,omitempty"`
	// Certify records per-machine SR-* certificates plus the FL-* fleet
	// certificate; the replay fails unless both verify clean.
	Certify bool `json:"certify,omitempty"`
	// TimeShare forwards Config.TimeShare (overcommitted placement).
	TimeShare bool `json:"timeShare,omitempty"`
}

func (s Scenario) withDefaults() Scenario {
	if s.Machines <= 0 {
		s.Machines = 1
	}
	if s.QueueDepth <= 0 {
		s.QueueDepth = 64
	}
	if s.Admission == "" {
		s.Admission = "shed-oldest"
	}
	return s
}

// NewScenarioFleet builds a fleet for the scenario: machines from the
// embedded serve knobs, every non-graph traffic model plus every
// backend deployed at its replica count, every graph registered.
func NewScenarioFleet(sc Scenario, metrics *obs.Metrics, trace *obs.Trace) (*Fleet, error) {
	sc = sc.withDefaults()
	adm, err := serve.ParseAdmissionPolicy(sc.Admission)
	if err != nil {
		return nil, err
	}
	f, err := New(Config{
		Machines:   sc.Machines,
		QueueDepth: sc.QueueDepth,
		Admission:  adm,
		Metrics:    metrics,
		Trace:      trace,
		Certify:    sc.Certify,
		Seed:       sc.Seed,
		TimeShare:  sc.TimeShare,
	})
	if err != nil {
		return nil, err
	}
	graphNames := map[string]bool{}
	for _, g := range sc.Graphs {
		graphNames[g.Name] = true
	}
	deploy := func(ms []load.ModelLoad) error {
		for _, m := range ms {
			if graphNames[m.Name] {
				continue // a traffic entry routing to a graph, not a model
			}
			spec := serve.ModelSpec{
				Name: m.Name, Model: m.Model, Policy: m.Policy,
				TotalChannels: m.TotalChannels, PIMChannels: m.PIMChannels,
				MaxBatch: m.MaxBatch, BatchWindowCycles: m.WindowCycles, SLO: m.SLO,
			}
			if err := f.Deploy(spec, sc.Replicas[m.Name]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := deploy(sc.Models); err == nil {
		err = deploy(sc.Backends)
	}
	if err != nil {
		_ = f.Shutdown(context.Background())
		return nil, err
	}
	for _, g := range sc.Graphs {
		if err := f.RegisterGraph(g); err != nil {
			_ = f.Shutdown(context.Background())
			return nil, err
		}
	}
	return f, nil
}

// hopEvent resumes a route at a hop-completion (or ensemble-join)
// cycle. seq breaks cycle ties in creation order, so the event schedule
// is a pure function of the trace.
type hopEvent struct {
	cycle int64
	seq   int64
	exec  *routeExec
}

func (e hopEvent) before(o hopEvent) bool {
	return e.cycle < o.cycle || e.cycle == o.cycle && e.seq < o.seq
}

// eventHeap is a min-heap of hop events in (cycle, seq) order.
type eventHeap []hopEvent

func (h *eventHeap) push(e hopEvent) {
	s := append(*h, e)
	for i := len(s) - 1; i > 0; {
		up := (i - 1) / 2
		if !s[i].before(s[up]) {
			break
		}
		s[up], s[i] = s[i], s[up]
		i = up
	}
	*h = s
}

func (h *eventHeap) pop() hopEvent {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0], s[n] = s[n], hopEvent{}
	s = s[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s[c+1].before(s[c]) {
			c++
		}
		if !s[c].before(s[i]) {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	*h = s
	return top
}

// replayer is the single-goroutine deterministic fleet replay.
type replayer struct {
	f        *Fleet
	rep      *load.Report
	stats    *load.Collector
	queues   []*serve.VirtualQueue[hop] // one per machine, by index
	events   eventHeap
	eventSeq int64
	replicas []int // resolve's replica set, reused per hop
	// hops holds the hops advance issues, reused per step; its first
	// backing array is part of the replayer, so no step of a route
	// issuing up to four hops allocates.
	hops   []hop
	hopBuf [4]hop
}

// Replay drives the trace through the fleet deterministically on one
// goroutine: each machine's admission and continuous batching is a
// serve.VirtualQueue, the engine load.Replay drives (a 1-machine fleet
// produces an identical report, modulo wall-clock fields), and graph
// traversals interleave through a (cycle, seq)-ordered event heap — a
// Sequence hop's arrival is pinned to its predecessor's completion
// cycle, an Ensemble joins at its slowest branch, so cross-machine
// latency lives on the one shared virtual timeline. Identical scenario,
// identical report.
//
//pimflow:deterministic
func Replay(f *Fleet, sc Scenario, reqs []load.Request) (*load.Report, error) {
	sc = sc.withDefaults()
	adm, err := serve.ParseAdmissionPolicy(sc.Admission)
	if err != nil {
		return nil, err
	}
	if f.Size() != sc.Machines {
		return nil, fmt.Errorf("fleet: scenario wants %d machines, fleet has %d", sc.Machines, f.Size())
	}
	x := &replayer{
		f:     f,
		rep:   &load.Report{Scenario: sc.Name, Requests: len(reqs), Classes: map[string]load.ClassStats{}},
		stats: load.NewCollector(sc.Scenario, len(reqs)),
	}
	x.hops = x.hopBuf[:0]
	for mi := 0; mi < f.Size(); mi++ {
		q, err := serve.NewVirtualQueue(f.Machine(mi), sc.QueueDepth, adm,
			func(h hop, resp *serve.InferResponse, err error) { x.settle(mi, h, resp, err) })
		if err != nil {
			return nil, err
		}
		x.queues = append(x.queues, q)
	}
	started := time.Now()

	// Events at a cycle fire before trace arrivals at that cycle. Once
	// the trace is out and no route waits, the open batch with the
	// earliest first member across the machines flushes (ties to the
	// lowest machine index); its completions may schedule more events.
loop:
	for ti := 0; ; {
		switch {
		case len(x.events) > 0 && (ti == len(reqs) || x.events[0].cycle <= reqs[ti].Cycle):
			ev := x.events.pop()
			err = x.advance(ev.exec, ev.cycle)
		case ti < len(reqs):
			err = x.admitTrace(reqs[ti])
			ti++
		default:
			q := x.earliestHead()
			if q == nil {
				break loop
			}
			err = q.FlushHead()
		}
		if err != nil {
			return nil, err
		}
	}

	x.rep.WallSeconds = time.Since(started).Seconds()
	x.stats.Finish(x.rep)
	if f.Certifying() {
		cert := f.Certificate()
		if diags := verify.Fleet(cert); len(diags) > 0 {
			return nil, fmt.Errorf("fleet: certificate (%d machines, %d hops): %w",
				len(cert.Machines), len(cert.Hops), verify.AsError(diags))
		}
		x.rep.Certified = true
		for _, name := range sortedKeys(cert.Schedules) {
			x.rep.CertifiedLeases += len(cert.Schedules[name].Leases)
		}
	}
	return x.rep, nil
}

// admitTrace routes one trace entry: a graph name starts a traversal,
// a model name is a single pinned hop.
func (x *replayer) admitTrace(r load.Request) error {
	x.f.mu.Lock()
	g, isGraph := x.f.graphs[r.Model]
	x.f.mu.Unlock()
	route := x.f.routeSeq.Add(1)
	if !isGraph {
		return x.issue(route, hop{model: r.Model, arrival: r.Cycle, after: -1})
	}
	exec, err := newRouteExec(route, g, "", r.Cycle)
	if err != nil {
		return err
	}
	return x.advance(exec, r.Cycle)
}

// advance runs route exec's interpreter at cycle t and admits the hops
// it issues. A route that issues none has finished at t, or failed at a
// Switch that matches no step.
func (x *replayer) advance(exec *routeExec, t int64) error {
	hops, err := x.f.advance(exec, t, x.hops[:0])
	x.hops = hops
	switch {
	case errors.Is(err, ErrNoSwitchMatch):
		x.fail(exec, err)
	case err != nil:
		return err
	case len(hops) == 0:
		x.finish(exec, t)
	}
	for _, h := range hops {
		if err := x.issue(exec.route, h); err != nil {
			return err
		}
	}
	return nil
}

// issue admits hop h of route at its arrival cycle on the machine
// resolve picks; its outcome comes back through settle.
func (x *replayer) issue(route int64, h hop) error {
	q, err := x.resolve(route, h.model, h.arrival)
	if err != nil {
		return err
	}
	return q.Admit(h.arrival, h.model, h)
}

// resolve picks the machine queue for a hop: ensure the model is placed
// (on-demand, modelmesh-style), touch its LRU stamp, then
// join-the-shortest-queue over the replicas by virtual occupancy at the
// hop cycle, ties to the lowest index — at one replica this always
// lands on the same machine load.Replay would be.
func (x *replayer) resolve(route int64, model string, t int64) (*serve.VirtualQueue[hop], error) {
	x.f.mu.Lock()
	d, err := x.f.placedLocked(route, model)
	if err == nil {
		x.replicas = append(x.replicas[:0], d.replicas...)
	}
	x.f.mu.Unlock()
	if err != nil {
		return nil, err
	}

	var best *serve.VirtualQueue[hop]
	bestLoad := 0
	for _, mi := range x.replicas {
		if l := x.queues[mi].Occupancy(t); best == nil || l < bestLoad {
			best, bestLoad = x.queues[mi], l
		}
	}
	return best, nil
}

// earliestHead returns the machine queue whose open batch has the
// earliest first member, ties to the lowest machine index; nil when
// nothing is open anywhere.
//
//pimflow:deterministic
func (x *replayer) earliestHead() *serve.VirtualQueue[hop] {
	var best *serve.VirtualQueue[hop]
	var bestHead int64
	for _, q := range x.queues {
		if c, ok := q.Head(); ok && (best == nil || c < bestHead) {
			best, bestHead = q, c
		}
	}
	return best
}

// settle takes one hop's outcome from machine mi's queue. A plain
// request's outcome goes to the report. A route's served hop goes to
// settleHop, and the route's continuation goes on the event heap (never
// recursively — the heap's (cycle, seq) order is the one source of
// interleaving); a failed hop fails its route.
func (x *replayer) settle(mi int, h hop, resp *serve.InferResponse, err error) {
	switch {
	case h.exec == nil:
		x.rep.Record(x.stats, resp, err)
	case err != nil:
		x.fail(h.exec, err)
	default:
		if t, ok := x.f.settleHop(x.f.machines[mi], h, resp); ok {
			x.pushEvent(h.exec, t)
		}
	}
}

// fail counts a route once, at its first failed hop; its in-flight
// sibling branches complete as no-ops.
func (x *replayer) fail(exec *routeExec, err error) {
	if !exec.failed {
		exec.failed = true
		x.rep.Record(nil, nil, err)
	}
}

func (x *replayer) pushEvent(exec *routeExec, cycle int64) {
	x.eventSeq++
	x.events.push(hopEvent{cycle: cycle, seq: x.eventSeq, exec: exec})
}

// finish completes a route: its end-to-end latency is the last
// completion minus the trace arrival (Sequence hops pin each arrival to
// the predecessor's end, so the pinning is exact; Ensemble branches
// join at the slowest end). The synthesized response's stage cycles sum
// the hop stages — for a pure Sequence they partition the latency
// exactly; an Ensemble's concurrent branches make the sum an
// upper bound.
func (x *replayer) finish(exec *routeExec, t int64) {
	x.rep.Record(x.stats, &serve.InferResponse{
		Model:           exec.graph.Name,
		ArrivalCycle:    exec.arrival,
		EndCycle:        t,
		LatencyCycles:   t - exec.arrival,
		BatchSize:       exec.lastBatch,
		SLOClass:        exec.lastClass,
		SLOMiss:         exec.sloMiss,
		BatchWaitCycles: exec.stages.BatchWait,
		LeaseWaitCycles: exec.stages.LeaseWait,
		ExecuteCycles:   exec.stages.Execute,
	}, nil)
	x.f.routeLatency.Observe(float64(t - exec.arrival))
}
