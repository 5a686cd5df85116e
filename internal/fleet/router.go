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

// nextRoute mints a route id.
func (f *Fleet) nextRoute() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.routeSeq++
	return f.routeSeq
}

// resolveHop picks the deployment and replica machine for one hop:
// on-demand placement when the model is registered but not loaded
// (modelmesh-style), then the live replica whose machine has the fewest
// outstanding hops, which the pick counts in before it returns. Ties
// rotate: the scan starts one replica further on each hop, so an idle
// or evenly loaded model spreads its traffic over every replica, one
// added later included.
func (f *Fleet) resolveHop(route int64, model string) (*deployment, int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	d, err := f.placedLocked(route, model)
	if err != nil {
		return nil, -1, err
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
	f.machines[best].outstanding.Add(1)
	return d, best, nil
}

// recordHop appends one completed hop to the fleet certificate
// (Certify only). after is the certificate index of the gating hop, -1
// when the hop started at the request's own arrival.
func (f *Fleet) recordHop(h verify.FleetHop) int {
	if !f.cfg.Certify {
		return -1
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.hopLog.Append(h)
	return f.hopLog.Len() - 1
}

// hopLive runs one live-path hop: resolve the replica, invoke the
// machine synchronously, and record the hop. Live-path hops use
// frontier-stamped arrivals (each machine stamps its own virtual
// frontier), so cross-machine gating is not pinned and recorded hops
// carry After -1 — the deterministic pinned-arrival story is Replay's.
func (f *Fleet) hopLive(ctx context.Context, route int64, graphName, nodeName, model string, deadline int64, resp *Response) (*serve.InferResponse, error) {
	d, mi, err := f.resolveHop(route, model)
	if err != nil {
		return nil, err
	}
	m := f.machines[mi]
	defer m.outstanding.Add(-1)
	endSpan := f.cfg.Trace.Span("fleet-router", model+"@"+m.name, "fleet.hop",
		map[string]any{"route": route, "graph": graphName, "node": nodeName, "machine": m.name})
	r, err := m.srv.Infer(ctx, serve.InferRequest{Model: d.spec.Name, DeadlineCycles: deadline})
	if err != nil {
		f.cfg.Metrics.Inc("fleet.hop_errors")
		endSpan(map[string]any{"error": err.Error()})
		return nil, err
	}
	endSpan(map[string]any{"latencyCycles": r.LatencyCycles, "batch": r.BatchSize})
	f.hops.Inc()
	m.hops.Inc()
	f.cfg.Metrics.Observe("fleet.hop_latency_cycles", float64(r.LatencyCycles))
	f.recordHop(verify.FleetHop{
		Route: route, Index: len(resp.Hops), Graph: graphName, Node: nodeName,
		Model: model, Machine: m.name, Arrival: r.ArrivalCycle, End: r.EndCycle, After: -1,
	})
	resp.Hops = append(resp.Hops, Hop{Graph: graphName, Node: nodeName, Model: model, Machine: m.name, Resp: r})
	return r, nil
}

// evalStepLive runs one step of the graph node named node: a nested node
// or a model hop that node issues, returning the step's virtual latency.
func (f *Fleet) evalStepLive(ctx context.Context, route int64, g Graph, node string, s GraphStep, cond string, deadline int64, resp *Response) (int64, error) {
	if s.Node != "" {
		n, err := graphNode(g, s.Node)
		if err != nil {
			return 0, err
		}
		return f.evalNodeLive(ctx, route, g, n, cond, deadline, resp)
	}
	r, err := f.hopLive(ctx, route, g.Name, node, s.Model, deadline, resp)
	if err != nil {
		return 0, err
	}
	return r.LatencyCycles, nil
}

// evalNodeLive interprets one graph node on the live path. Sequence
// latencies add (each hop consumes its predecessor's output), Ensemble
// latencies join on the maximum (branches run concurrently in virtual
// time), Splitter and Switch take their one chosen branch.
func (f *Fleet) evalNodeLive(ctx context.Context, route int64, g Graph, n GraphNode, cond string, deadline int64, resp *Response) (int64, error) {
	switch n.Type {
	case "sequence":
		var total int64
		for _, s := range n.Steps {
			lat, err := f.evalStepLive(ctx, route, g, n.Name, s, cond, deadline, resp)
			if err != nil {
				return 0, err
			}
			total += lat
		}
		return total, nil
	case "ensemble":
		var join int64
		for _, s := range n.Steps {
			lat, err := f.evalStepLive(ctx, route, g, n.Name, s, cond, deadline, resp)
			if err != nil {
				return 0, err
			}
			if lat > join {
				join = lat
			}
		}
		return join, nil
	case "splitter":
		return f.evalStepLive(ctx, route, g, n.Name, pickSplit(f.cfg.Seed, route, n.Steps), cond, deadline, resp)
	case "switch":
		s, err := pickSwitch(cond, n.Steps)
		if err != nil {
			return 0, err
		}
		return f.evalStepLive(ctx, route, g, n.Name, s, cond, deadline, resp)
	}
	return 0, fmt.Errorf("fleet: graph %q node %q has unknown type %q", g.Name, n.Name, n.Type)
}

// Infer routes one request through the fleet synchronously: a plain
// model request becomes one hop on the replica resolveHop picks; a graph
// request traverses its nodes hop by hop. This is the concurrent live
// path (HTTP); the deterministic virtual-time story is Replay.
func (f *Fleet) Infer(ctx context.Context, req Request) (*Response, error) {
	name := req.Graph
	if name == "" {
		name = req.Model
	}
	route := f.nextRoute()
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
		var root GraphNode
		if root, err = graphNode(g, g.Root); err == nil {
			resp.LatencyCycles, err = f.evalNodeLive(ctx, route, g, root, req.Cond, req.DeadlineCycles, resp)
		}
	} else {
		var r *serve.InferResponse
		if r, err = f.hopLive(ctx, route, "", "", name, req.DeadlineCycles, resp); err == nil {
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
