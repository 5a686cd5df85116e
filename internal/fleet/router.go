package fleet

import (
	"context"
	"fmt"

	"pimflow/internal/serve"
	"pimflow/internal/verify"
)

// Request is one routed inference: a deployed model by name, or a
// registered inference graph (Graph set, or Model naming a graph).
type Request struct {
	// Model names a deployed model — or a registered graph, which routes
	// like Graph.
	Model string `json:"model,omitempty"`
	// Graph names a registered inference graph to traverse.
	Graph string `json:"graph,omitempty"`
	// Cond is the Switch-node routing condition (kserve matches trigger
	// conditions against request payloads; here the condition travels
	// explicitly).
	Cond string `json:"cond,omitempty"`
	// DeadlineCycles applies serve.InferRequest's virtual deadline to
	// every hop.
	DeadlineCycles int64 `json:"deadlineCycles,omitempty"`
}

// Hop is one model invocation of a routed request.
type Hop struct {
	Graph   string               `json:"graph,omitempty"`
	Node    string               `json:"node,omitempty"`
	Model   string               `json:"model"`
	Machine string               `json:"machine"`
	Resp    *serve.InferResponse `json:"resp"`
}

// Response is one routed request's outcome: the virtual latency of the
// whole traversal (Sequence hops add, Ensemble hops join on the
// maximum) and the per-hop detail.
type Response struct {
	Route         int64  `json:"route"`
	Graph         string `json:"graph,omitempty"`
	Model         string `json:"model,omitempty"`
	LatencyCycles int64  `json:"latencyCycles"`
	Hops          []Hop  `json:"hops"`
}

// hop is one model invocation: a plain replay request (exec nil) or one
// hop of a graph route that the route engine (advance, then settleHop
// once the hop is served) issued for Replay or the live path alike.
type hop struct {
	// exec is the hop's route; ens points at the joining ensemble frame
	// when the hop is one of its branches.
	exec    *routeExec
	ens     *execFrame
	node    string
	model   string
	arrival int64
	after   int // certificate index of the gating hop, -1 when ungated
}

// routeExec is one in-flight graph traversal.
type routeExec struct {
	route   int64
	graph   Graph
	cond    string
	arrival int64
	frames  []*execFrame
	// lastCert is the certificate index of the hop gating the next one
	// (-1 at the root: the first hop starts at the route's arrival).
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

// newRouteExec starts a traversal of g at its root node.
func newRouteExec(route int64, g Graph, cond string, arrival int64) (*routeExec, error) {
	root, err := graphNode(g, g.Root)
	if err != nil {
		return nil, err
	}
	return &routeExec{route: route, graph: g, cond: cond, arrival: arrival, lastCert: -1,
		frames: []*execFrame{{node: root}}}, nil
}

// advance runs a route's interpreter at virtual cycle t until it issues
// hops or completes, and returns hops with the hops it issued appended.
// Sequence frames issue their next step, pinned at t; entering an
// Ensemble issues every branch at t (branches run concurrently in
// virtual time and join at the slowest end); Splitter and Switch
// resolve to their one chosen step and vanish from the stack. A route
// that issues no hop has finished at t, or failed with ErrNoSwitchMatch
// at a Switch that matches no step.
func (f *Fleet) advance(exec *routeExec, t int64, hops []hop) ([]hop, error) {
	for len(exec.frames) > 0 {
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
			for _, s := range fr.node.Steps {
				hops = append(hops, hop{exec: exec, ens: fr, node: fr.node.Name, model: s.Model, arrival: t, after: exec.lastCert})
			}
			return hops, nil
		case "splitter":
			s = pickSplit(f.cfg.Seed, exec.route, fr.node.Steps)
			exec.frames = exec.frames[:len(exec.frames)-1]
		case "switch":
			var err error
			if s, err = pickSwitch(exec.cond, fr.node.Steps); err != nil {
				return hops, err
			}
			exec.frames = exec.frames[:len(exec.frames)-1]
		default:
			return hops, fmt.Errorf("fleet: graph %q node %q has unknown type %q", exec.graph.Name, fr.node.Name, fr.node.Type)
		}
		if s.Node == "" {
			return append(hops, hop{exec: exec, node: fr.node.Name, model: s.Model, arrival: t, after: exec.lastCert}), nil
		}
		n, err := graphNode(exec.graph, s.Node)
		if err != nil {
			return hops, err
		}
		exec.frames = append(exec.frames, &execFrame{node: n})
	}
	return hops, nil
}

// settleHop does the bookkeeping of a route's hop that machine m served:
// its certificate row, the hop counters, the route's stage sums and, for
// an Ensemble branch, the join. It returns the cycle the route resumes
// at, and false while the hop's Ensemble waits on another branch or the
// route has failed.
func (f *Fleet) settleHop(m *machine, h hop, resp *serve.InferResponse) (int64, bool) {
	exec := h.exec
	idx := f.recordHop(m, verify.FleetHop{
		Route: exec.route, Index: exec.hopCount, Graph: exec.graph.Name, Node: h.node,
		Model: resp.Model, Machine: m.name, Arrival: resp.ArrivalCycle, End: resp.EndCycle, After: h.after,
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
	fr := h.ens
	if fr == nil {
		exec.lastCert = idx
		return resp.EndCycle, !exec.failed
	}
	fr.remaining--
	if resp.EndCycle > fr.maxEnd {
		fr.maxEnd = resp.EndCycle
		fr.maxCert = idx
	}
	if fr.remaining > 0 || exec.failed {
		return 0, false
	}
	// All branches joined: pop the ensemble frame (it is the top — nothing
	// advances a route while a join is outstanding) and resume the parent
	// at the slowest branch's completion.
	exec.frames = exec.frames[:len(exec.frames)-1]
	exec.lastCert = fr.maxCert
	return fr.maxEnd, true
}

// resolveHop picks the replica machine for one live hop:
// on-demand placement when the model is registered but not loaded
// (modelmesh-style), then the live replica whose machine has the fewest
// outstanding hops, which the pick counts in before it returns. Ties
// rotate: the scan starts one replica further on each hop, so an idle
// or evenly loaded model spreads its traffic over every replica, one
// added later included.
func (f *Fleet) resolveHop(route int64, model string) (*machine, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	d, err := f.placedLocked(route, model)
	if err != nil {
		return nil, err
	}
	n := len(d.replicas)
	best, bestLoad := -1, int64(0)
	for k := range n {
		mi := d.replicas[(d.turn+k)%n]
		if load := f.machines[mi].outstanding.Load(); best < 0 || load < bestLoad {
			best, bestLoad = mi, load
		}
	}
	d.turn = (d.turn + 1) % n
	m := f.machines[best]
	m.outstanding.Add(1)
	return m, nil
}

// recordHop counts one hop machine m served and, under Certify, appends
// its row to the fleet certificate, returning the row's index (-1 when
// not certifying).
func (f *Fleet) recordHop(m *machine, h verify.FleetHop) int {
	f.hops.Inc()
	m.hops.Inc()
	if !f.cfg.Certify {
		return -1
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.hopLog.Append(h)
	return f.hopLog.Len() - 1
}

// serveHop serves hop h of route on the replica resolveHop picks, at
// once: its arrival pinned at h.arrival, or stamped from the machine's
// frontier when that is 0.
func (f *Fleet) serveHop(ctx context.Context, route int64, graphName string, h hop, deadline int64) (*machine, *serve.InferResponse, error) {
	m, err := f.resolveHop(route, h.model)
	if err != nil {
		return nil, nil, err
	}
	defer m.outstanding.Add(-1)
	endSpan := f.cfg.Trace.Span("fleet-router", h.model+"@"+m.name, "fleet.hop",
		map[string]any{"route": route, "graph": graphName, "node": h.node, "machine": m.name})
	r, err := m.srv.Infer(ctx, serve.InferRequest{Model: h.model, DeadlineCycles: deadline, ArrivalCycle: h.arrival})
	if err != nil {
		f.cfg.Metrics.Inc("fleet.hop_errors")
		endSpan(map[string]any{"error": err.Error()})
		return nil, nil, err
	}
	endSpan(map[string]any{"latencyCycles": r.LatencyCycles, "batch": r.BatchSize})
	f.cfg.Metrics.Observe("fleet.hop_latency_cycles", float64(r.LatencyCycles))
	return m, r, nil
}

// frontier is the fleet's completion frontier, the latest completion
// across its machines. Every live request arrives there, so live traffic
// shares one timeline: a plain request and a graph hop that one machine
// batches together arrive apart only by the work the fleet served in
// between, never by another machine's backlog.
func (f *Fleet) frontier() int64 {
	var t int64
	for _, m := range f.machines {
		t = max(t, m.srv.Scheduler().Arrival())
	}
	return t
}

// inferGraph runs one live route through graph g. The route arrives at
// the fleet's frontier, at least cycle 1 so that every hop is pinned (an
// ArrivalCycle of 0 asks a machine for its own frontier), and the route
// engine pins its hops as Replay does: a Sequence step at its
// predecessor's end, every Ensemble branch at one cycle. The route's
// latency is its last completion minus its arrival, so Sequence hop
// latencies add and Ensemble branches join on the maximum.
func (f *Fleet) inferGraph(ctx context.Context, g Graph, req Request, resp *Response) error {
	arrival := max(1, f.frontier())
	exec, err := newRouteExec(resp.Route, g, req.Cond, arrival)
	if err != nil {
		return err
	}
	var hops []hop
	for t := arrival; ; {
		if hops, err = f.advance(exec, t, hops[:0]); err != nil {
			return err
		}
		if len(hops) == 0 {
			resp.LatencyCycles = t - arrival
			return nil
		}
		for _, h := range hops {
			m, r, err := f.serveHop(ctx, resp.Route, g.Name, h, req.DeadlineCycles)
			if err != nil {
				return err
			}
			resp.Hops = append(resp.Hops, Hop{Graph: g.Name, Node: h.node, Model: h.model, Machine: m.name, Resp: r})
			if next, ok := f.settleHop(m, h, r); ok {
				t = next
			}
		}
	}
}

// Infer routes one request through the fleet synchronously: a plain
// model request becomes one hop on the replica resolveHop picks,
// arriving at the fleet's frontier (stamped from its machine's frontier
// while the fleet is idle); a graph request runs the route engine hop by
// hop. This is the concurrent live path (HTTP); the deterministic
// virtual-time story is Replay.
func (f *Fleet) Infer(ctx context.Context, req Request) (*Response, error) {
	name := req.Graph
	if name == "" {
		name = req.Model
	}
	route := f.routeSeq.Add(1)
	f.cfg.Metrics.Inc("fleet.requests")
	endSpan := f.cfg.Trace.Span("fleet-router", name, "fleet.route", map[string]any{"route": route})

	f.mu.Lock()
	g, isGraph := f.graphs[name]
	f.mu.Unlock()
	if req.Graph != "" && !isGraph {
		f.cfg.Metrics.Inc("fleet.route_errors")
		endSpan(map[string]any{"error": "unknown graph"})
		return nil, fmt.Errorf("%w: %q", ErrUnknownGraph, req.Graph)
	}

	resp := &Response{Route: route, Model: req.Model}
	var err error
	if isGraph {
		resp.Graph = name
		resp.Model = ""
		err = f.inferGraph(ctx, g, req, resp)
	} else {
		var m *machine
		var r *serve.InferResponse
		if m, r, err = f.serveHop(ctx, route, "", hop{model: name, arrival: f.frontier()}, req.DeadlineCycles); err == nil {
			f.recordHop(m, verify.FleetHop{Route: route, Model: name, Machine: m.name,
				Arrival: r.ArrivalCycle, End: r.EndCycle, After: -1})
			resp.Hops = []Hop{{Model: name, Machine: m.name, Resp: r}}
			resp.LatencyCycles = r.LatencyCycles
		}
	}
	if err != nil {
		f.cfg.Metrics.Inc("fleet.route_errors")
		endSpan(map[string]any{"error": err.Error()})
		return nil, err
	}
	f.routeLatency.Observe(float64(resp.LatencyCycles))
	endSpan(map[string]any{"latencyCycles": resp.LatencyCycles, "hops": len(resp.Hops)})
	return resp, nil
}
