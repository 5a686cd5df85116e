// Tier D — the fleet certificate. One machine's schedule certificate
// (Tier C) proves its own leases were physically realizable, but the
// fleet layer adds decisions no single machine can certify: which
// machines exist, which models were placed where (and whether the
// bin-packing respected each machine's channel groups), which replica
// sets were consistent, and how inference-graph requests hopped between
// machines. When fleet.Config.Certify is on, the router records every
// placement decision (append-only, with an Active flag so evictions
// keep their history), every graph definition, and every routed hop
// into a FleetCertificate, and Fleet replays the FL-* rule family over
// it — then hands each machine's embedded schedule certificate to
// Schedule, so one fleet verification covers both tiers.
package verify

import (
	"fmt"
	"slices"
	"sort"
)

// Fleet-certificate rule IDs (Tier D).
const (
	RuleFleetMachine  = "FL-MACHINE"  // malformed machine set, or a placement/hop names an unknown machine
	RuleFleetCapacity = "FL-CAPACITY" // active placements oversubscribe a machine's channel groups
	RuleFleetReplica  = "FL-REPLICA"  // replica set inconsistent: duplicate machine or divergent demand
	RuleFleetNode     = "FL-NODE"     // malformed inference-graph node or step
	RuleFleetAcyclic  = "FL-ACYCLIC"  // inference-graph node references cycle, or missing root
	RuleFleetRoute    = "FL-ROUTE"    // routed hop inconsistent with its placement, graph, or gating hop
)

// FleetMachine describes one machine in the certificate.
type FleetMachine struct {
	Name        string `json:"name"`
	GPUChannels int    `json:"gpuChannels"`
	PIMChannels int    `json:"pimChannels"`
}

// FleetPlacement is one placement decision in the router's append-only
// log: model onto machine with a static channel-group demand. Evicted
// placements stay in the log with Active false — FL-CAPACITY sums only
// active placements, while FL-ROUTE accepts hops against any recorded
// placement (the hop may have run before the eviction). TimeShare marks
// an explicitly overcommitted placement (fleet.Config.TimeShare), which
// the capacity sum skips: its safety is proven dynamically by the
// machine's SR-OVERLAP check instead.
type FleetPlacement struct {
	Model     string `json:"model"`
	Machine   string `json:"machine"`
	GPU       int    `json:"gpu"`
	PIM       int    `json:"pim"`
	Active    bool   `json:"active"`
	TimeShare bool   `json:"timeShare,omitempty"`
}

// FleetGraphStep is one step of an inference-graph node: a model hop or
// a nested node reference (exactly one), with a Splitter weight and a
// Switch condition where the node type uses them.
type FleetGraphStep struct {
	Model     string `json:"model,omitempty"`
	Node      string `json:"node,omitempty"`
	Weight    int    `json:"weight,omitempty"`
	Condition string `json:"condition,omitempty"`
}

// FleetGraphNode is one node of an inference graph. Type is "sequence",
// "ensemble", "splitter", or "switch".
type FleetGraphNode struct {
	Name  string           `json:"name"`
	Type  string           `json:"type"`
	Steps []FleetGraphStep `json:"steps"`
}

// FleetGraph is one registered inference graph: a named node set and the
// root node a request enters at.
type FleetGraph struct {
	Name  string           `json:"name"`
	Root  string           `json:"root"`
	Nodes []FleetGraphNode `json:"nodes"`
}

// FleetHop is one model invocation of one routed request: which graph
// node issued it, which machine served it, and its virtual window. After
// indexes the hop (within the same route) whose completion gated this
// hop's arrival — a Sequence data dependency — or -1 when the hop
// started at the request's own arrival.
type FleetHop struct {
	Route   int64  `json:"route"`
	Index   int    `json:"index"`
	Graph   string `json:"graph,omitempty"`
	Node    string `json:"node,omitempty"`
	Model   string `json:"model"`
	Machine string `json:"machine"`
	Arrival int64  `json:"arrival"`
	End     int64  `json:"end"`
	After   int    `json:"after"`
}

// FleetCertificate is the router's self-reported record of one fleet
// run: the machine set, the placement log, the registered graphs, every
// routed hop, and each machine's own schedule certificate.
type FleetCertificate struct {
	Machines   []FleetMachine                 `json:"machines"`
	Placements []FleetPlacement               `json:"placements"`
	Graphs     []FleetGraph                   `json:"graphs,omitempty"`
	Hops       []FleetHop                     `json:"hops,omitempty"`
	Schedules  map[string]ScheduleCertificate `json:"schedules,omitempty"`
}

// FleetView is a fleet certificate as the FL-* checks read it, its hop
// table a row view and each machine's schedule a ScheduleView.
type FleetView struct {
	Machines   []FleetMachine
	Placements []FleetPlacement
	Graphs     []FleetGraph
	Hops       Rows[FleetHop]
	Schedules  map[string]ScheduleView
}

// View views c's tables in place, each as one page.
func (c FleetCertificate) View() FleetView {
	v := FleetView{c.Machines, c.Placements, c.Graphs, RowsOf(c.Hops), make(map[string]ScheduleView, len(c.Schedules))}
	for name, s := range c.Schedules {
		v.Schedules[name] = s.View()
	}
	return v
}

// Certificate copies the viewed rows out, as ScheduleView.Certificate does.
func (v FleetView) Certificate() FleetCertificate {
	c := FleetCertificate{v.Machines, v.Placements, v.Graphs, v.Hops.Copy(), nil}
	if v.Schedules != nil {
		c.Schedules = make(map[string]ScheduleCertificate, len(v.Schedules))
		for name, s := range v.Schedules {
			c.Schedules[name] = s.Certificate()
		}
	}
	return c
}

// fleetDiag builds a fleet-tier diagnostic (machine or graph identity
// rides in the Node field).
func fleetDiag(rule, where, msg string) Diagnostic {
	return Diagnostic{Rule: rule, Node: where, Channel: -1, Index: -1, Msg: msg}
}

// Fleet checks a fleet certificate against the FL-* rules, then checks
// each machine's embedded schedule certificate against the SR-* rules.
// An empty certificate is trivially valid.
func Fleet(c FleetCertificate) []Diagnostic { return c.View().Check() }

// Check checks the viewed certificate as Fleet does.
func (c FleetView) Check() []Diagnostic {
	var diags []Diagnostic
	machines := map[string]FleetMachine{}
	for _, m := range c.Machines {
		if m.Name == "" {
			diags = append(diags, fleetDiag(RuleFleetMachine, "", "machine with empty name"))
			continue
		}
		if _, dup := machines[m.Name]; dup {
			diags = append(diags, fleetDiag(RuleFleetMachine, m.Name, "duplicate machine name"))
			continue
		}
		if m.GPUChannels < 1 || m.PIMChannels < 0 {
			diags = append(diags, fleetDiag(RuleFleetMachine, m.Name,
				fmt.Sprintf("machine has %d GPU + %d PIM channels", m.GPUChannels, m.PIMChannels)))
		}
		machines[m.Name] = m
	}
	// The FL-* rules are one task on the worker pool and each machine's
	// schedule is another, assembled in sorted machine-name order.
	names := sortedKeys(c.Schedules)
	for _, part := range runTasks(1+len(names), func(i int) []Diagnostic {
		if i > 0 {
			return c.Schedules[names[i-1]].Check()
		}
		d := checkPlacements(c.Placements, machines)
		graphs := map[string]FleetGraph{}
		for _, g := range c.Graphs {
			graphs[g.Name] = g
			d = append(d, checkGraph(g)...)
		}
		return append(d, checkHops(&c, machines, graphs)...)
	}) {
		diags = append(diags, part...)
	}
	return diags
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// checkPlacements verifies the placement log: every placement names a
// known machine and fits it alone (FL-MACHINE/FL-CAPACITY), active
// non-time-shared placements never sum past a machine's channel groups
// (FL-CAPACITY), and a model's active replicas sit on distinct machines
// with one common demand (FL-REPLICA).
func checkPlacements(placements []FleetPlacement, machines map[string]FleetMachine) []Diagnostic {
	var diags []Diagnostic
	type usage struct{ gpu, pim int }
	used := map[string]usage{}
	type replica struct {
		machines map[string]bool
		gpu, pim int
		first    bool
	}
	replicas := map[string]*replica{}
	for _, p := range placements {
		m, ok := machines[p.Machine]
		if !ok {
			diags = append(diags, fleetDiag(RuleFleetMachine, p.Machine,
				fmt.Sprintf("placement of %q names unknown machine %q", p.Model, p.Machine)))
			continue
		}
		if p.GPU < 0 || p.PIM < 0 || p.GPU > m.GPUChannels || p.PIM > m.PIMChannels {
			diags = append(diags, fleetDiag(RuleFleetCapacity, p.Machine,
				fmt.Sprintf("placement of %q demands %d GPU + %d PIM channels, machine has %d + %d",
					p.Model, p.GPU, p.PIM, m.GPUChannels, m.PIMChannels)))
			continue
		}
		if !p.Active {
			continue
		}
		r := replicas[p.Model]
		if r == nil {
			r = &replica{machines: map[string]bool{}, gpu: p.GPU, pim: p.PIM, first: true}
			replicas[p.Model] = r
		}
		if r.machines[p.Machine] {
			diags = append(diags, fleetDiag(RuleFleetReplica, p.Model,
				fmt.Sprintf("model %q placed twice on machine %q", p.Model, p.Machine)))
		}
		r.machines[p.Machine] = true
		if !r.first && (r.gpu != p.GPU || r.pim != p.PIM) {
			diags = append(diags, fleetDiag(RuleFleetReplica, p.Model,
				fmt.Sprintf("model %q replicas disagree on demand: %d+%d vs %d+%d",
					p.Model, r.gpu, r.pim, p.GPU, p.PIM)))
		}
		r.first = false
		if p.TimeShare {
			continue // dynamic safety proven by the machine's SR-OVERLAP check
		}
		u := used[p.Machine]
		u.gpu += p.GPU
		u.pim += p.PIM
		used[p.Machine] = u
		if u.gpu > m.GPUChannels || u.pim > m.PIMChannels {
			diags = append(diags, fleetDiag(RuleFleetCapacity, p.Machine,
				fmt.Sprintf("active placements hold %d GPU + %d PIM channels on %q, machine has %d + %d",
					u.gpu, u.pim, p.Machine, m.GPUChannels, m.PIMChannels)))
		}
	}
	return diags
}

// checkGraph verifies one inference graph's static shape: the root
// exists, every node is well-typed with well-formed steps (FL-NODE),
// and node references form no cycle (FL-ACYCLIC).
func checkGraph(g FleetGraph) []Diagnostic {
	var diags []Diagnostic
	nodes := map[string]FleetGraphNode{}
	for _, n := range g.Nodes {
		if n.Name == "" {
			diags = append(diags, fleetDiag(RuleFleetNode, g.Name, "node with empty name"))
			continue
		}
		if _, dup := nodes[n.Name]; dup {
			diags = append(diags, fleetDiag(RuleFleetNode, g.Name,
				fmt.Sprintf("duplicate node %q", n.Name)))
			continue
		}
		nodes[n.Name] = n
	}
	if _, ok := nodes[g.Root]; !ok {
		diags = append(diags, fleetDiag(RuleFleetAcyclic, g.Name,
			fmt.Sprintf("root node %q not defined", g.Root)))
	}
	for _, n := range g.Nodes {
		diags = append(diags, checkGraphNode(g, n, nodes)...)
	}
	diags = append(diags, checkGraphCycles(g, nodes)...)
	return diags
}

func checkGraphNode(g FleetGraph, n FleetGraphNode, nodes map[string]FleetGraphNode) []Diagnostic {
	var diags []Diagnostic
	where := g.Name + "/" + n.Name
	switch n.Type {
	case "sequence", "ensemble", "splitter", "switch":
	default:
		diags = append(diags, fleetDiag(RuleFleetNode, where,
			fmt.Sprintf("unknown node type %q", n.Type)))
		return diags
	}
	if len(n.Steps) == 0 {
		diags = append(diags, fleetDiag(RuleFleetNode, where, "node has no steps"))
		return diags
	}
	defaults := 0
	for i, s := range n.Steps {
		switch {
		case s.Model == "" && s.Node == "":
			diags = append(diags, fleetDiag(RuleFleetNode, where,
				fmt.Sprintf("step %d targets neither a model nor a node", i)))
		case s.Model != "" && s.Node != "":
			diags = append(diags, fleetDiag(RuleFleetNode, where,
				fmt.Sprintf("step %d targets both model %q and node %q", i, s.Model, s.Node)))
		case s.Node != "":
			if _, ok := nodes[s.Node]; !ok {
				diags = append(diags, fleetDiag(RuleFleetNode, where,
					fmt.Sprintf("step %d references undefined node %q", i, s.Node)))
			}
			if n.Type == "ensemble" {
				// Ensemble branches run concurrently; a nested node would need
				// its own branch-local execution state, which the router's
				// single continuation stack does not model. Restricting
				// ensemble steps to direct model hops keeps the join exact.
				diags = append(diags, fleetDiag(RuleFleetNode, where,
					fmt.Sprintf("step %d: ensemble steps must target models, not node %q", i, s.Node)))
			}
		}
		if n.Type == "splitter" && s.Weight <= 0 {
			diags = append(diags, fleetDiag(RuleFleetNode, where,
				fmt.Sprintf("step %d has splitter weight %d", i, s.Weight)))
		}
		if n.Type == "switch" && s.Condition == "" {
			defaults++
		}
	}
	if n.Type == "switch" && defaults > 1 {
		diags = append(diags, fleetDiag(RuleFleetNode, where,
			fmt.Sprintf("switch has %d default (conditionless) steps", defaults)))
	}
	return diags
}

// checkGraphCycles walks node references (step.Node edges) and reports
// any cycle: a request entering a cyclic graph would hop forever.
func checkGraphCycles(g FleetGraph, nodes map[string]FleetGraphNode) []Diagnostic {
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := map[string]int{}
	var diags []Diagnostic
	var visit func(name string)
	visit = func(name string) {
		n, ok := nodes[name]
		if !ok || state[name] == done {
			return
		}
		if state[name] == visiting {
			diags = append(diags, fleetDiag(RuleFleetAcyclic, g.Name,
				fmt.Sprintf("node %q participates in a reference cycle", name)))
			return
		}
		state[name] = visiting
		for _, s := range n.Steps {
			if s.Node != "" {
				visit(s.Node)
			}
		}
		state[name] = done
	}
	for _, name := range sortedKeys(nodes) {
		visit(name)
	}
	return diags
}

// checkHops verifies the routed hops: each names a known machine
// (FL-MACHINE), rides a recorded placement of its model on that machine
// and a defined graph node where it claims one, has a non-inverted
// window, and — when gated — starts no earlier than the completion of
// the hop it waited on, within the same route (FL-ROUTE). The walk
// formats a hop's label only when a rule fires, and looks a hop's names
// up through recent memos.
func checkHops(c *FleetView, machines map[string]FleetMachine, graphs map[string]FleetGraph) []Diagnostic {
	type placement struct{ model, machine string }
	set := make(map[placement]bool, len(c.Placements)) // any log entry
	for _, p := range c.Placements {
		set[placement{p.Model, p.Machine}] = true
	}
	known := recent[string, bool]{miss: func(m string) bool { _, ok := machines[m]; return ok }}
	placed := recent[placement, bool]{miss: func(k placement) bool { return set[k] }}
	// graphNode answers a (graph, node) claim: 0 holds, 1 names an
	// unregistered graph, 2 an undefined node of a registered one.
	graphNode := recent[[2]string, int]{miss: func(k [2]string) int {
		if g, ok := graphs[k[0]]; !ok {
			return 1
		} else if k[1] != "" && !slices.ContainsFunc(g.Nodes, func(n FleetGraphNode) bool { return n.Name == k[1] }) {
			return 2
		}
		return 0
	}}
	pages := c.Hops.pages
	starts := make([]int, len(pages)+1) // each page's first hop, then the hop count
	for p, page := range pages {
		starts[p+1] = starts[p] + len(page)
	}
	var diags []Diagnostic
	for p, page := range pages {
		for j := range page {
			i, h := starts[p]+j, &page[j]
			if !known.get(h.Machine) {
				diags = append(diags, fleetDiag(RuleFleetMachine, h.Machine,
					fmt.Sprintf("%s ran on unknown machine %q", hopLabel(i, h), h.Machine)))
				continue
			}
			if !placed.get(placement{h.Model, h.Machine}) {
				diags = append(diags, fleetDiag(RuleFleetRoute, h.Model,
					fmt.Sprintf("%s ran on %q where the model was never placed", hopLabel(i, h), h.Machine)))
			}
			if h.Graph != "" {
				switch graphNode.get([2]string{h.Graph, h.Node}) {
				case 1:
					diags = append(diags, fleetDiag(RuleFleetRoute, h.Graph,
						fmt.Sprintf("%s claims unregistered graph %q", hopLabel(i, h), h.Graph)))
				case 2:
					diags = append(diags, fleetDiag(RuleFleetRoute, h.Graph,
						fmt.Sprintf("%s claims undefined node %q of graph %q", hopLabel(i, h), h.Node, h.Graph)))
				}
			}
			if h.End < h.Arrival {
				diags = append(diags, fleetDiag(RuleFleetRoute, h.Model,
					fmt.Sprintf("%s window [%d, %d] is inverted", hopLabel(i, h), h.Arrival, h.End)))
			}
			if a := h.After; a >= starts[len(pages)] {
				diags = append(diags, fleetDiag(RuleFleetRoute, h.Model,
					fmt.Sprintf("%s gated on out-of-range hop %d", hopLabel(i, h), a)))
			} else if a >= 0 {
				q := p // the gate's page: the gated hop's, or else searched for
				if a < starts[q] || a >= starts[q+1] {
					q = sort.SearchInts(starts, a+1) - 1
				}
				switch g := &pages[q][a-starts[q]]; {
				case g.Route != h.Route:
					diags = append(diags, fleetDiag(RuleFleetRoute, h.Model,
						fmt.Sprintf("%s gated on hop %d of a different route %d", hopLabel(i, h), a, g.Route)))
				case h.Arrival < g.End:
					diags = append(diags, fleetDiag(RuleFleetRoute, h.Model,
						fmt.Sprintf("%s arrived at %d before its gating hop %d completed at %d",
							hopLabel(i, h), h.Arrival, a, g.End)))
				}
			}
		}
	}
	return diags
}

// hopLabel names hop i in a diagnostic.
func hopLabel(i int, h *FleetHop) string {
	return fmt.Sprintf("hop %d (route %d, model %q)", i, h.Route, h.Model)
}
