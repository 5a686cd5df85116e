package fleet

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"

	"pimflow/internal/serve"
	"pimflow/internal/verify"
)

// referenceWalk is the recursive graph evaluator the live path ran
// before it shared the route engine with Replay, kept as the engine's
// reference. It walks one route's traversal of g as that evaluator did,
// but reads each model step's hop from hops, the certificate rows the
// route recorded in order, instead of calling a machine: Sequence hop
// latencies add, Ensemble branches join on the maximum, Splitter and
// Switch take their one chosen step. visit counts the node types it
// enters, and "nested" the node steps it takes.
type referenceWalk struct {
	seed, route int64
	g           Graph
	cond        string
	hops        []verify.FleetHop
	read        int
	visit       map[string]int
}

func (w *referenceWalk) step(node string, s GraphStep) (int64, error) {
	if s.Node != "" {
		n, err := graphNode(w.g, s.Node)
		if err != nil {
			return 0, err
		}
		w.visit["nested"]++
		return w.node(n)
	}
	if w.read == len(w.hops) {
		return 0, fmt.Errorf("step %s/%s has no recorded hop", node, s.Model)
	}
	h := w.hops[w.read]
	w.read++
	if h.Node != node || h.Model != s.Model {
		return 0, fmt.Errorf("hop %d ran %s/%s where the reference steps %s/%s", w.read-1, h.Node, h.Model, node, s.Model)
	}
	return h.End - h.Arrival, nil
}

func (w *referenceWalk) node(n GraphNode) (int64, error) {
	w.visit[n.Type]++
	switch n.Type {
	case "sequence", "ensemble":
		var lat int64
		for _, s := range n.Steps {
			l, err := w.step(n.Name, s)
			if err != nil {
				return 0, err
			}
			if n.Type == "sequence" {
				lat += l
			} else {
				lat = max(lat, l)
			}
		}
		return lat, nil
	case "splitter":
		return w.step(n.Name, pickSplit(w.seed, w.route, n.Steps))
	case "switch":
		s, err := pickSwitch(w.cond, n.Steps)
		if err != nil {
			return 0, err
		}
		return w.step(n.Name, s)
	}
	return 0, fmt.Errorf("graph %q node %q has unknown type %q", w.g.Name, n.Name, n.Type)
}

// genNode draws a node from rng, appends it and the nodes it nests to
// g, and returns its name; depth bounds the nesting. Sequence, Splitter
// and Switch steps name a model or a new node, Ensemble steps name
// models only (FL-NODE). A Switch's steps match "fast", then "slow",
// and a third one is the default, so a switch of one or two steps has
// no default.
func genNode(rng *rand.Rand, g *Graph, models []string, depth int) string {
	types := []string{"sequence", "ensemble", "splitter", "switch"}
	n := GraphNode{Name: fmt.Sprintf("n%d", len(g.Nodes)), Type: types[rng.IntN(len(types))]}
	at := len(g.Nodes)
	g.Nodes = append(g.Nodes, n)
	for j := range 1 + rng.IntN(3) {
		s := GraphStep{Model: models[rng.IntN(len(models))]}
		if n.Type != "ensemble" && depth > 0 && rng.IntN(2) == 0 {
			s = GraphStep{Node: genNode(rng, g, models, depth-1)}
		}
		switch n.Type {
		case "splitter":
			s.Weight = 1 + rng.IntN(4)
		case "switch":
			s.Condition = []string{"fast", "slow", ""}[j]
		}
		n.Steps = append(n.Steps, s)
	}
	g.Nodes[at] = n
	return n.Name
}

// Live routes through seeded generated graphs on a three-machine fleet
// with replicas answer what the reference evaluator computes from their
// recorded hops: the same latency, the same hops in the same (node,
// model) order, and the same ErrNoSwitchMatch where no switch step
// matches. Routes run one at a time, and the certificate verifies clean.
func TestLiveRoutesMatchReference(t *testing.T) {
	f, err := New(Config{Machines: 3, Certify: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Shutdown(context.Background()) })
	models := []string{"toy-a", "toy-b", "toy-c"}
	// Three solo latencies; toy-c's one replica makes an Ensemble's
	// branches to it queue for each other.
	for i, d := range []struct {
		policy             string
		total, pim, copies int
	}{{"PIMFlow", 16, 8, 2}, {"Newton+", 16, 8, 3}, {"Baseline", 8, 4, 1}} {
		spec := serve.ModelSpec{Name: models[i], Model: "toy", Policy: d.policy, TotalChannels: d.total, PIMChannels: d.pim}
		if err := f.Deploy(spec, d.copies); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewPCG(2, 33))
	var graphs []Graph
	for i := range 8 {
		g := Graph{Name: fmt.Sprintf("g%d", i)}
		g.Root = genNode(rng, &g, models, 3)
		if err := f.RegisterGraph(g); err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}

	visit := map[string]int{}
	served, unmatched, rows := 0, 0, 0
	for route := int64(1); route <= 96; route++ {
		g := graphs[int(route)%len(graphs)]
		cond := []string{"fast", "slow", "other"}[int(route)/len(graphs)%3]
		resp, err := f.Infer(context.Background(), Request{Graph: g.Name, Cond: cond})
		hops := f.Certificate().Hops[rows:]
		rows += len(hops)
		w := &referenceWalk{seed: f.cfg.Seed, route: route, g: g, cond: cond, hops: hops, visit: visit}
		root, _ := graphNode(g, g.Root)
		want, refErr := w.node(root)
		switch {
		case errors.Is(refErr, ErrNoSwitchMatch) && errors.Is(err, ErrNoSwitchMatch) && w.read == len(hops):
			unmatched++
			continue
		case refErr != nil || err != nil:
			t.Fatalf("route %d (%s, cond %q): live %v, reference %v", route, g.Name, cond, err, refErr)
		case resp.Route != route || resp.LatencyCycles != want || w.read != len(hops) || len(resp.Hops) != len(hops):
			t.Fatalf("route %d (%s, cond %q): live route %d latency %d over %d hops, reference %d over %d of %d recorded",
				route, g.Name, cond, resp.Route, resp.LatencyCycles, len(resp.Hops), want, w.read, len(hops))
		}
		for i, h := range resp.Hops {
			if r := hops[i]; h.Node != r.Node || h.Model != r.Model || h.Machine != r.Machine || h.Resp.LatencyCycles != r.End-r.Arrival {
				t.Fatalf("route %d hop %d: response %s/%s on %s (%d cycles), certificate %s/%s on %s (%d cycles)",
					route, i, h.Node, h.Model, h.Machine, h.Resp.LatencyCycles, r.Node, r.Model, r.Machine, r.End-r.Arrival)
			}
		}
		served++
	}
	for _, k := range []string{"sequence", "ensemble", "splitter", "switch", "nested"} {
		if visit[k] == 0 {
			t.Errorf("no route entered a %s step", k)
		}
	}
	if served == 0 || unmatched == 0 {
		t.Errorf("%d routes served and %d found no switch match; want both", served, unmatched)
	}
	if diags := verify.Fleet(f.Certificate()); len(diags) != 0 {
		t.Fatalf("live certificate dirty: %v", diags)
	}
}
