package fleet

import (
	"cmp"
	"container/heap"
	"context"
	"errors"
	"fmt"
	"slices"
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
	// Machines is the fleet size (default 1 — the configuration that is
	// operation-for-operation identical to load.Replay on one server).
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

// fleetPending is one admitted, not-yet-flushed hop in a machine's
// virtual queue (load.Replay's pendingReq plus routing context).
type fleetPending struct {
	cycle    int64
	service  int64
	deadline int64
	shed     bool
	// exec is nil for a plain trace request; ens points at the joining
	// ensemble frame when this hop is one of its branches.
	exec  *routeExec
	ens   *execFrame
	graph string
	node  string
	model string
	after int // certificate index of the gating hop, -1 when ungated
}

// fleetBatch is one model's batch on one machine. It is open while it
// holds items (shed ones included); flush empties it, and the model's
// next hop on the machine reuses it and its item buffer.
type fleetBatch struct {
	items      []fleetPending
	flushCycle int64 // 0: flush immediately (no virtual window)
}

func fleetHeadCycle(vb *fleetBatch) int64 {
	if len(vb.items) == 0 {
		return -1
	}
	return vb.items[0].cycle
}

// cycleHeap is a min-heap of in-service completion cycles (one per
// machine), mirroring load.Replay's occupancy accounting.
type cycleHeap []int64

func (h cycleHeap) Len() int           { return len(h) }
func (h cycleHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h cycleHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *cycleHeap) Push(x any)        { *h = append(*h, x.(int64)) }

func (h *cycleHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
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

type eventHeap []hopEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].cycle != h[j].cycle {
		return h[i].cycle < h[j].cycle
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(hopEvent)) }

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// machineState is one machine's replay-side virtual queue: the open
// batches and the in-service completion frontier, exactly load.Replay's
// state for that machine's server.
type machineState struct {
	idx     int
	srv     *serve.Server
	batches map[string]*fleetBatch
	// names lists the models of the open batches in sorted order, the
	// order every scan over open batches visits them in.
	names    []string
	inFlight cycleHeap
	queued   int             // unshed hops in open batches
	order    []*fleetPending // openInOrder's buffer, reused per arrival
	cands    []serve.ShedCandidate
}

// openBatch adds the model to the machine's open batches.
func (ms *machineState) openBatch(model string) {
	i, _ := slices.BinarySearch(ms.names, model)
	ms.names = slices.Insert(ms.names, i, model)
}

// closeBatch removes the model from the machine's open batches.
func (ms *machineState) closeBatch(model string) {
	if i, ok := slices.BinarySearch(ms.names, model); ok {
		ms.names = slices.Delete(ms.names, i, i+1)
	}
}

func (ms *machineState) prune(now int64) {
	for len(ms.inFlight) > 0 && ms.inFlight[0] <= now {
		heap.Pop(&ms.inFlight)
	}
}

func (ms *machineState) occupancy() int { return len(ms.inFlight) + ms.queued }

// openInOrder lists the machine's open unshed hops oldest first (the
// candidate order serve.PickShedVictim expects), models visited sorted
// and the sort stable — load.Replay's tie discipline. The returned slice
// is reused by the next call, and its pointers are good until the next
// append to a batch.
func (ms *machineState) openInOrder() []*fleetPending {
	ps := ms.order[:0]
	for _, m := range ms.names {
		items := ms.batches[m].items
		for j := range items {
			if p := &items[j]; !p.shed {
				ps = append(ps, p)
			}
		}
	}
	slices.SortStableFunc(ps, func(a, b *fleetPending) int { return cmp.Compare(a.cycle, b.cycle) })
	ms.order = ps
	return ps
}

// modelInfo is the per-model shed-prediction and batching policy data
// (identical on every machine: replicas share one compiled model).
type modelInfo struct {
	service  int64
	deadline int64
	maxBatch int
	window   int64
}

// replayer is the single-goroutine deterministic fleet replay.
type replayer struct {
	f        *Fleet
	sc       Scenario
	shed     bool
	rep      *load.Report
	stats    *load.Collector
	machines []*machineState
	info     map[string]*modelInfo
	events   eventHeap
	eventSeq int64
	// Buffers reused per hop (resolve's replica set) and per flush (the
	// batch handed to InferBatch and its members).
	replicas []int
	batch    []serve.InferRequest
	live     []*fleetPending
}

// Replay drives the trace through the fleet deterministically on one
// goroutine: per-machine admission and continuous batching mirror
// load.Replay operation for operation (a 1-machine fleet produces an
// identical report, modulo wall-clock fields), and graph traversals
// interleave through a (cycle, seq)-ordered event heap — a Sequence
// hop's arrival is pinned to its predecessor's completion cycle, an
// Ensemble joins at its slowest branch, so cross-machine latency lives
// on the one shared virtual timeline. Identical scenario, identical
// report.
//
//pimflow:deterministic
func Replay(f *Fleet, sc Scenario, reqs []load.Request) (*load.Report, error) {
	sc = sc.withDefaults()
	shed := sc.Admission == "shed-oldest" || sc.Admission == "shed"
	if !shed && sc.Admission != "reject" {
		return nil, fmt.Errorf("fleet: replay admission %q (open-loop replay supports reject and shed-oldest)", sc.Admission)
	}
	if f.Size() != sc.Machines {
		return nil, fmt.Errorf("fleet: scenario wants %d machines, fleet has %d", sc.Machines, f.Size())
	}
	x := &replayer{
		f:     f,
		sc:    sc,
		shed:  shed,
		rep:   &load.Report{Scenario: sc.Name, Requests: len(reqs), Classes: map[string]load.ClassStats{}},
		stats: load.NewCollector(sc.Scenario, len(reqs)),
		info:  map[string]*modelInfo{},
	}
	for i := 0; i < f.Size(); i++ {
		x.machines = append(x.machines, &machineState{
			idx:     i,
			srv:     f.Machine(i),
			batches: map[string]*fleetBatch{},
		})
	}
	started := time.Now()

	ti := 0
	for ti < len(reqs) || x.events.Len() > 0 {
		if x.events.Len() > 0 && (ti >= len(reqs) || x.events[0].cycle <= reqs[ti].Cycle) {
			ev := heap.Pop(&x.events).(hopEvent)
			if err := x.advance(ev.exec, ev.cycle); err != nil {
				return nil, err
			}
			continue
		}
		r := reqs[ti]
		ti++
		if err := x.admitTrace(r); err != nil {
			return nil, err
		}
	}
	if err := x.drain(); err != nil {
		return nil, err
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

// Run is the one-call fleet harness: build the fleet, generate the
// trace, replay it, shut the fleet down.
func Run(sc Scenario) (*load.Report, error) {
	sc = sc.withDefaults()
	f, err := NewScenarioFleet(sc, nil, nil)
	if err != nil {
		return nil, err
	}
	defer f.Shutdown(context.Background())
	reqs, err := load.Generate(sc.Scenario)
	if err != nil {
		return nil, err
	}
	return Replay(f, sc, reqs)
}

// admitTrace routes one trace entry: a graph name starts a traversal,
// a model name is a single pinned hop.
func (x *replayer) admitTrace(r load.Request) error {
	x.f.mu.Lock()
	g, isGraph := x.f.graphs[r.Model]
	x.f.mu.Unlock()
	route := x.f.nextRoute()
	if !isGraph {
		return x.issueHop(nil, nil, route, "", "", r.Model, r.Cycle, -1)
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
	for {
		if exec.failed {
			return nil
		}
		if len(exec.frames) == 0 {
			x.finishExec(exec, t)
			return nil
		}
		fr := exec.frames[len(exec.frames)-1]
		switch fr.node.Type {
		case "sequence":
			if fr.idx >= len(fr.node.Steps) {
				exec.frames = exec.frames[:len(exec.frames)-1]
				continue
			}
			s := fr.node.Steps[fr.idx]
			fr.idx++
			if s.Node != "" {
				n, err := graphNode(exec.graph, s.Node)
				if err != nil {
					return err
				}
				exec.frames = append(exec.frames, &execFrame{node: n})
				continue
			}
			return x.issueHop(exec, nil, exec.route, exec.graph.Name, fr.node.Name, s.Model, t, exec.lastCert)
		case "ensemble":
			// FL-NODE restricts ensemble steps to models, so every branch
			// is one hop and the join state fits in the frame.
			fr.remaining = len(fr.node.Steps)
			fr.maxEnd = -1
			fr.maxCert = -1
			gate := exec.lastCert
			for _, s := range fr.node.Steps {
				if err := x.issueHop(exec, fr, exec.route, exec.graph.Name, fr.node.Name, s.Model, t, gate); err != nil {
					return err
				}
			}
			return nil
		case "splitter":
			s := pickSplit(x.f.cfg.Seed, exec.route, fr.node.Steps)
			exec.frames = exec.frames[:len(exec.frames)-1]
			if s.Node != "" {
				n, err := graphNode(exec.graph, s.Node)
				if err != nil {
					return err
				}
				exec.frames = append(exec.frames, &execFrame{node: n})
				continue
			}
			return x.issueHop(exec, nil, exec.route, exec.graph.Name, fr.node.Name, s.Model, t, exec.lastCert)
		case "switch":
			s, err := pickSwitch(exec.cond, fr.node.Steps)
			if err != nil {
				// No matching step: the route fails (counted once).
				exec.failed = true
				x.rep.Errors++
				return nil
			}
			exec.frames = exec.frames[:len(exec.frames)-1]
			if s.Node != "" {
				n, nerr := graphNode(exec.graph, s.Node)
				if nerr != nil {
					return nerr
				}
				exec.frames = append(exec.frames, &execFrame{node: n})
				continue
			}
			return x.issueHop(exec, nil, exec.route, exec.graph.Name, fr.node.Name, s.Model, t, exec.lastCert)
		default:
			return fmt.Errorf("fleet: graph %q node %q has unknown type %q", exec.graph.Name, fr.node.Name, fr.node.Type)
		}
	}
}

// resolve picks the machine for a hop: ensure the model is placed
// (on-demand, modelmesh-style), touch its LRU stamp, then
// join-the-shortest-queue over the replicas by replay-side virtual
// occupancy (in-flight completions pruned to the hop cycle first), ties
// to the lowest index — at one replica this always lands on the same
// machine load.Replay would be.
func (x *replayer) resolve(route int64, model string, t int64) (*machineState, *modelInfo, error) {
	f := x.f
	f.mu.Lock()
	d, ok := f.deployments[model]
	if !ok {
		f.mu.Unlock()
		return nil, nil, fmt.Errorf("fleet: trace names unknown model %q", model)
	}
	if len(d.replicas) == 0 {
		if err := f.ensureLocked(d, true); err != nil {
			f.mu.Unlock()
			return nil, nil, err
		}
		f.cfg.Metrics.Inc("fleet.on_demand_loads")
	}
	d.lastUsed = route
	x.replicas = append(x.replicas[:0], d.replicas...)
	f.mu.Unlock()

	info := x.info[model]
	if info == nil {
		lm, err := f.compiler.Get(model)
		if err != nil {
			return nil, nil, err
		}
		info = &modelInfo{
			service:  lm.Solo.DurationCycles(),
			deadline: lm.SLOTarget,
			maxBatch: lm.Batch.MaxBatch,
			window:   lm.Batch.WindowCycles,
		}
		x.info[model] = info
	}

	var best *machineState
	bestLoad := 0
	for _, mi := range x.replicas {
		ms := x.machines[mi]
		ms.prune(t)
		if l := ms.occupancy(); best == nil || l < bestLoad {
			best, bestLoad = ms, l
		}
	}
	return best, info, nil
}

// issueHop admits one hop on its resolved machine — the same admission
// steps, in the same order, as load.Replay's arrival handling: flush
// overdue windows, prune completions, check occupancy (reject or shed
// the live queue's victim), open or extend the model's batch, flush
// when full or windowless.
func (x *replayer) issueHop(exec *routeExec, ens *execFrame, route int64, graphName, nodeName, model string, t int64, after int) error {
	ms, info, err := x.resolve(route, model, t)
	if err != nil {
		return err
	}
	if err := x.flushDue(ms, t); err != nil {
		return err
	}
	ms.prune(t)
	p := fleetPending{cycle: t, service: info.service, deadline: info.deadline,
		exec: exec, ens: ens, graph: graphName, node: nodeName, model: model, after: after}
	if ms.occupancy() >= x.sc.QueueDepth {
		if !x.shed {
			x.countFail(&p, &x.rep.Rejected)
			return nil
		}
		ps := ms.openInOrder()
		cands := ms.cands[:0]
		for _, q := range ps {
			cands = append(cands, serve.ShedCandidate{Deadline: q.deadline, Service: q.service})
		}
		cands = append(cands, serve.ShedCandidate{Deadline: p.deadline, Service: p.service})
		ms.cands = cands
		v := serve.PickShedVictim(cands)
		if v == len(ps) {
			x.countFail(&p, &x.rep.Shed)
			return nil
		}
		ps[v].shed = true
		ms.queued--
		x.countFail(ps[v], &x.rep.Shed)
	}
	vb := ms.batches[model]
	if vb == nil {
		vb = &fleetBatch{}
		ms.batches[model] = vb
	}
	if len(vb.items) == 0 {
		vb.flushCycle = 0
		if info.maxBatch > 1 && info.window > 0 {
			vb.flushCycle = t + info.window
		}
		ms.openBatch(model)
	}
	vb.items = append(vb.items, p)
	ms.queued++
	full := 0
	for _, q := range vb.items {
		if !q.shed {
			full++
		}
	}
	if full >= info.maxBatch || vb.flushCycle == 0 {
		return x.flush(ms, model, vb)
	}
	return nil
}

// countFail records one admission failure: plain requests count
// directly; a route counts once, at its first failed hop (in-flight
// sibling branches of a failed route complete as no-ops).
func (x *replayer) countFail(p *fleetPending, counter *int) {
	if p.exec == nil {
		*counter++
		return
	}
	if !p.exec.failed {
		p.exec.failed = true
		*counter++
	}
}

// flushDue flushes the machine's overdue windows in deterministic
// (flushCycle, model) order — load.Replay's discipline.
func (x *replayer) flushDue(ms *machineState, now int64) error {
	for {
		var dueModel string
		var due *fleetBatch
		for _, m := range ms.names {
			vb := ms.batches[m]
			if vb.flushCycle > 0 && now > vb.flushCycle &&
				(due == nil || vb.flushCycle < due.flushCycle) {
				dueModel, due = m, vb
			}
		}
		if due == nil {
			return nil
		}
		if err := x.flush(ms, dueModel, due); err != nil {
			return err
		}
	}
}

// flush hands one formed batch to the machine's InferBatch and settles
// each member: plain requests feed the report directly; routed hops
// record their certificate entry and schedule the route's continuation
// on the event heap (never recursively — the heap's (cycle, seq) order
// is the one source of interleaving).
func (x *replayer) flush(ms *machineState, model string, vb *fleetBatch) error {
	ms.closeBatch(model)
	batch, live := x.batch[:0], x.live[:0]
	for i := range vb.items {
		p := &vb.items[i]
		if p.shed {
			continue
		}
		batch = append(batch, serve.InferRequest{Model: model, ArrivalCycle: p.cycle})
		live = append(live, p)
	}
	x.batch, x.live = batch, live
	// live points into the emptied item buffer, which nothing appends to
	// before this flush returns.
	vb.items = vb.items[:0]
	ms.queued -= len(live)
	if len(batch) == 0 {
		return nil
	}
	outs, err := ms.srv.InferBatch(context.Background(), batch, serve.BatchOptions{Execute: x.sc.Execute})
	if err != nil {
		return err
	}
	for i, o := range outs {
		p := live[i]
		switch {
		case o.Err == nil:
			heap.Push(&ms.inFlight, o.Resp.EndCycle)
			x.settle(ms, p, o.Resp)
		case errors.Is(o.Err, serve.ErrDeadlineViolation):
			x.countFail(p, &x.rep.Violated)
		default:
			x.countFail(p, &x.rep.Errors)
		}
	}
	return nil
}

// settle finishes one served hop.
func (x *replayer) settle(ms *machineState, p *fleetPending, resp *serve.InferResponse) {
	if p.exec == nil {
		x.observe(resp)
		return
	}
	exec := p.exec
	idx := x.f.recordHop(verify.FleetHop{
		Route: exec.route, Index: exec.hopCount, Graph: p.graph, Node: p.node,
		Model: p.model, Machine: x.f.machines[ms.idx].name,
		Arrival: p.cycle, End: resp.EndCycle, After: p.after,
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
	x.f.cfg.Metrics.Inc("fleet.hops")
	x.f.cfg.Metrics.Inc(obs.LabeledKey("fleet.hops", "machine", x.f.machines[ms.idx].name))
	if p.ens != nil {
		fr := p.ens
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

func (x *replayer) pushEvent(exec *routeExec, cycle int64) {
	x.eventSeq++
	heap.Push(&x.events, hopEvent{cycle: cycle, seq: x.eventSeq, exec: exec})
}

// observe feeds one request-level completion into the report.
func (x *replayer) observe(resp *serve.InferResponse) {
	x.rep.Served++
	x.stats.Observe(resp)
	cs := x.rep.Classes[resp.SLOClass]
	cs.Served++
	if resp.SLOMiss {
		cs.SLOMiss++
		x.rep.SLOMiss++
	}
	x.rep.Classes[resp.SLOClass] = cs
}

// finishExec completes a route: its end-to-end latency is the last
// completion minus the trace arrival (Sequence hops pin each arrival to
// the predecessor's end, so the pinning is exact; Ensemble branches
// join at the slowest end). The synthesized response's stage cycles sum
// the hop stages — for a pure Sequence they partition the latency
// exactly; an Ensemble's concurrent branches make the sum an
// upper bound.
func (x *replayer) finishExec(exec *routeExec, t int64) {
	x.observe(&serve.InferResponse{
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
	})
	x.f.cfg.Metrics.Observe("fleet.route_latency_cycles", float64(t-exec.arrival))
}

// drain settles the trailing state once the trace is exhausted: pending
// events first (each may open fresh batches), then the globally
// earliest-headed open batch across (machine index, sorted model) —
// load.Replay's trailing order, lifted to N machines — until nothing is
// open anywhere.
func (x *replayer) drain() error {
	for {
		if x.events.Len() > 0 {
			ev := heap.Pop(&x.events).(hopEvent)
			if err := x.advance(ev.exec, ev.cycle); err != nil {
				return err
			}
			continue
		}
		var bestMS *machineState
		var bestModel string
		var best *fleetBatch
		for _, ms := range x.machines {
			for _, m := range ms.names {
				vb := ms.batches[m]
				if best == nil || fleetHeadCycle(vb) < fleetHeadCycle(best) {
					bestMS, bestModel, best = ms, m, vb
				}
			}
		}
		if best == nil {
			return nil
		}
		if err := x.flush(bestMS, bestModel, best); err != nil {
			return err
		}
	}
}
