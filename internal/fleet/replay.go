package fleet

import (
	"context"
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

// hop is one model invocation a machine's queue admits: a plain trace
// request (exec nil) or one hop of a graph route.
type hop struct {
	// exec is the hop's route; ens points at the joining ensemble frame
	// when the hop is one of its branches.
	exec    *routeExec
	ens     *execFrame
	node    string
	arrival int64
	after   int // certificate index of the gating hop, -1 when ungated
}

// routeExec is one in-flight graph traversal in the replay.
type routeExec struct {
	route   int64
	graph   Graph
	cond    string
	arrival int64
	frames  []*execFrame
	// lastCert is the certificate index of the hop gating the next one
	// (-1 at the root: the first hop starts at the trace arrival).
	lastCert  int
	hopCount  int
	lastBatch int
	lastClass string
	sloMiss   bool
	stages    serve.StageCycles
	failed    bool
}

// execFrame is one graph-node activation on a route's stack.
type execFrame struct {
	node GraphNode
	idx  int // sequence: next step
	// Ensemble join state: branches outstanding, the join cycle (max
	// branch end), and the certificate index of the branch that set it.
	remaining int
	maxEnd    int64
	maxCert   int
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
	route := x.f.nextRoute()
	if !isGraph {
		return x.issueHop(nil, nil, route, "", r.Model, r.Cycle, -1)
	}
	root, err := graphNode(g, g.Root)
	if err != nil {
		return err
	}
	exec := &routeExec{route: route, graph: g, arrival: r.Cycle, lastCert: -1,
		frames: []*execFrame{{node: root}}}
	return x.advance(exec, r.Cycle)
}

// advance runs a route's interpreter at virtual cycle t until it issues
// hop(s) or completes. Sequence frames issue their next step; entering
// an Ensemble issues every branch at once (branches run concurrently in
// virtual time and join at the slowest end); Splitter and Switch
// resolve to their one chosen step and vanish from the stack.
func (x *replayer) advance(exec *routeExec, t int64) error {
	for !exec.failed {
		if len(exec.frames) == 0 {
			x.finishExec(exec, t)
			return nil
		}
		fr := exec.frames[len(exec.frames)-1]
		var s GraphStep
		switch fr.node.Type {
		case "sequence":
			if fr.idx >= len(fr.node.Steps) {
				exec.frames = exec.frames[:len(exec.frames)-1]
				continue
			}
			s = fr.node.Steps[fr.idx]
			fr.idx++
		case "ensemble":
			// FL-NODE restricts ensemble steps to models, so every branch
			// is one hop and the join state fits in the frame.
			fr.remaining = len(fr.node.Steps)
			fr.maxEnd = -1
			fr.maxCert = -1
			gate := exec.lastCert
			for _, s := range fr.node.Steps {
				if err := x.issueHop(exec, fr, exec.route, fr.node.Name, s.Model, t, gate); err != nil {
					return err
				}
			}
			return nil
		case "splitter":
			s = pickSplit(x.f.cfg.Seed, exec.route, fr.node.Steps)
			exec.frames = exec.frames[:len(exec.frames)-1]
		case "switch":
			var err error
			if s, err = pickSwitch(exec.cond, fr.node.Steps); err != nil {
				x.fail(exec, err)
				return nil
			}
			exec.frames = exec.frames[:len(exec.frames)-1]
		default:
			return fmt.Errorf("fleet: graph %q node %q has unknown type %q", exec.graph.Name, fr.node.Name, fr.node.Type)
		}
		if s.Node == "" {
			return x.issueHop(exec, nil, exec.route, fr.node.Name, s.Model, t, exec.lastCert)
		}
		n, err := graphNode(exec.graph, s.Node)
		if err != nil {
			return err
		}
		exec.frames = append(exec.frames, &execFrame{node: n})
	}
	return nil
}

// issueHop admits one hop at cycle t on the machine resolve picks; the
// hop's outcome comes back through settle.
func (x *replayer) issueHop(exec *routeExec, ens *execFrame, route int64, node, model string, t int64, after int) error {
	q, err := x.resolve(route, model, t)
	if err != nil {
		return err
	}
	return q.Admit(t, model, hop{exec: exec, ens: ens, node: node, arrival: t, after: after})
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
// request's outcome goes to the report. A route's served hop records its
// certificate entry and schedules the route's continuation on the event
// heap (never recursively — the heap's (cycle, seq) order is the one
// source of interleaving); a failed hop fails its route.
func (x *replayer) settle(mi int, h hop, resp *serve.InferResponse, err error) {
	exec := h.exec
	if exec == nil {
		x.rep.Record(x.stats, resp, err)
		return
	}
	if err != nil {
		x.fail(exec, err)
		return
	}
	m := x.f.machines[mi]
	idx := x.f.recordHop(verify.FleetHop{
		Route: exec.route, Index: exec.hopCount, Graph: exec.graph.Name, Node: h.node,
		Model: resp.Model, Machine: m.name, Arrival: h.arrival, End: resp.EndCycle, After: h.after,
	})
	exec.hopCount++
	exec.lastBatch = resp.BatchSize
	exec.lastClass = resp.SLOClass
	if resp.SLOMiss {
		exec.sloMiss = true
	}
	exec.stages.BatchWait += resp.BatchWaitCycles
	exec.stages.LeaseWait += resp.LeaseWaitCycles
	exec.stages.Execute += resp.ExecuteCycles
	x.f.hops.Inc()
	m.hops.Inc()
	if fr := h.ens; fr != nil {
		fr.remaining--
		if resp.EndCycle > fr.maxEnd {
			fr.maxEnd = resp.EndCycle
			fr.maxCert = idx
		}
		if fr.remaining == 0 && !exec.failed {
			// All branches joined: pop the ensemble frame (it is the top —
			// nothing advances a route while a join is outstanding) and
			// resume the parent at the slowest branch's completion.
			exec.frames = exec.frames[:len(exec.frames)-1]
			exec.lastCert = fr.maxCert
			x.pushEvent(exec, fr.maxEnd)
		}
		return
	}
	if !exec.failed {
		exec.lastCert = idx
		x.pushEvent(exec, resp.EndCycle)
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

// finishExec completes a route: its end-to-end latency is the last
// completion minus the trace arrival (Sequence hops pin each arrival to
// the predecessor's end, so the pinning is exact; Ensemble branches
// join at the slowest end). The synthesized response's stage cycles sum
// the hop stages — for a pure Sequence they partition the latency
// exactly; an Ensemble's concurrent branches make the sum an
// upper bound.
func (x *replayer) finishExec(exec *routeExec, t int64) {
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
