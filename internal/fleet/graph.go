package fleet

import (
	"fmt"

	"pimflow/internal/verify"
)

// RegisterGraph validates and registers an inference graph. The static
// FL-NODE / FL-ACYCLIC rules gate registration the same way GR-*/TR-*
// gate a model load: a malformed graph never becomes routable. Every
// model a step references must already be deployed (or registered for
// on-demand load).
func (f *Fleet) RegisterGraph(g Graph) error {
	if g.Name == "" {
		return fmt.Errorf("fleet: graph with empty name")
	}
	if diags := verify.Fleet(verify.FleetCertificate{
		Machines: []verify.FleetMachine{{Name: "static-check", GPUChannels: 1}},
		Graphs:   []verify.FleetGraph{g},
	}); len(diags) > 0 {
		return fmt.Errorf("fleet: graph %q failed verification: %w", g.Name, verify.AsError(diags))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.graphs[g.Name]; ok {
		return fmt.Errorf("%w: graph %q already registered", ErrNameTaken, g.Name)
	}
	if _, ok := f.deployments[g.Name]; ok {
		return fmt.Errorf("%w: graph %q collides with a deployed model", ErrNameTaken, g.Name)
	}
	for _, n := range g.Nodes {
		for _, s := range n.Steps {
			if s.Model == "" {
				continue
			}
			if _, ok := f.deployments[s.Model]; !ok {
				return fmt.Errorf("fleet: graph %q step references %w: %q", g.Name, ErrUnknownModel, s.Model)
			}
		}
	}
	f.graphs[g.Name] = g
	f.cfg.Metrics.Set("fleet.graphs_registered", float64(len(f.graphs)))
	return nil
}

// Graphs lists the registered graphs sorted by name.
func (f *Fleet) Graphs() []Graph {
	f.mu.Lock()
	defer f.mu.Unlock()
	gs := make([]Graph, 0, len(f.graphs))
	for _, name := range sortedKeys(f.graphs) {
		gs = append(gs, f.graphs[name])
	}
	return gs
}

// graphNode resolves a node by name within a graph (registration
// guarantees existence for validated references).
func graphNode(g Graph, name string) (GraphNode, error) {
	for _, n := range g.Nodes {
		if n.Name == name {
			return n, nil
		}
	}
	return GraphNode{}, fmt.Errorf("fleet: graph %q has no node %q", g.Name, name)
}

// splitmix64 is the standard SplitMix64 finalizer: a statistically
// strong, allocation-free hash for the Splitter's weighted pick.
// Deterministic by construction — the replay's route sequence plus the
// fleet seed fully determine every split decision.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// pickSplit chooses a splitter step by deterministic weighted hash of
// (fleet seed, route id): the same seed and route sequence always take
// the same branch, and branch frequencies converge to the weight
// ratios.
func pickSplit(seed, route int64, steps []GraphStep) GraphStep {
	total := 0
	for _, s := range steps {
		total += s.Weight
	}
	h := splitmix64(uint64(seed)<<32 ^ uint64(route))
	pick := int(h % uint64(total))
	for _, s := range steps {
		pick -= s.Weight
		if pick < 0 {
			return s
		}
	}
	return steps[len(steps)-1]
}

// pickSwitch chooses the first switch step whose condition equals the
// request's condition, falling back to the default (conditionless)
// step. kserve's Switch matches trigger conditions the same way: first
// match wins, one optional default.
func pickSwitch(cond string, steps []GraphStep) (GraphStep, error) {
	var dflt *GraphStep
	for i, s := range steps {
		if s.Condition == "" {
			if dflt == nil {
				dflt = &steps[i]
			}
			continue
		}
		if s.Condition == cond {
			return s, nil
		}
	}
	if dflt != nil {
		return *dflt, nil
	}
	return GraphStep{}, fmt.Errorf("%w: %q", ErrNoSwitchMatch, cond)
}
