package verify

import (
	"fmt"
	"sort"
)

// The map-based schedule and hop checkers, kept as test-only references
// for the index-table ones: the differential tests assert that Schedule
// and Fleet return exactly their diagnostics, clean or not, down to order
// and message text.

// ReferenceSchedule is the map-and-copy SR-* checker, kept as the
// oracle of the differential tests: one map entry per lease, a copy of
// every request per lease for SR-WINDOW, and a request label formatted
// for every request whether or not a rule fires.
func ReferenceSchedule(c ScheduleCertificate) []Diagnostic {
	var diags []Diagnostic
	leases := map[uint64]ScheduleLease{}
	for _, l := range c.Leases {
		if _, dup := leases[l.ID]; dup {
			diags = append(diags, schedDiag(RuleSchedDemand, l.Model,
				fmt.Sprintf("duplicate lease id %d", l.ID)))
			continue
		}
		leases[l.ID] = l
		if l.Start >= l.End {
			diags = append(diags, schedDiag(RuleSchedDemand, l.Model,
				fmt.Sprintf("lease %d window [%d, %d) is empty or inverted", l.ID, l.Start, l.End)))
		}
		if l.GPU < 0 || l.PIM < 0 || l.GPU > c.GPUChannels || l.PIM > c.PIMChannels {
			diags = append(diags, schedDiag(RuleSchedDemand, l.Model,
				fmt.Sprintf("lease %d demands %d GPU + %d PIM channels, machine has %d + %d",
					l.ID, l.GPU, l.PIM, c.GPUChannels, c.PIMChannels)))
		}
		if l.Batch < 1 {
			diags = append(diags, schedDiag(RuleSchedDemand, l.Model,
				fmt.Sprintf("lease %d served an empty batch", l.ID)))
		}
	}
	diags = append(diags, refCheckOverlap(c)...)
	diags = append(diags, refCheckFrontier(c, leases)...)
	diags = append(diags, refCheckRequests(c, leases)...)
	diags = append(diags, refCheckWindows(c, leases)...)
	return diags
}

// refCheckOverlap sweeps the lease windows and verifies both channel groups
// stay within capacity at every point in virtual time. Usage changes
// only at lease boundaries; windows are half-open, so a lease ending at
// t composes with one starting at t. It sorts every grant and release
// at once in the sweep's total order (cycle, demand sum, GPU demand):
// the order of equal-sum events decides the breach a finding reports.
func refCheckOverlap(c ScheduleCertificate) []Diagnostic {
	type event struct {
		at       int64
		gpu, pim int
	}
	events := make([]event, 0, 2*len(c.Leases))
	for _, l := range c.Leases {
		if l.Start >= l.End {
			continue // already an SR-DEMAND finding
		}
		events = append(events, event{l.Start, l.GPU, l.PIM}, event{l.End, -l.GPU, -l.PIM})
	}
	// Releases sort before grants at the same instant (half-open windows).
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.gpu+a.pim != b.gpu+b.pim {
			return a.gpu+a.pim < b.gpu+b.pim
		}
		return a.gpu < b.gpu
	})
	var diags []Diagnostic
	gpu, pim := 0, 0
	for _, e := range events {
		gpu += e.gpu
		pim += e.pim
		if gpu > c.GPUChannels || pim > c.PIMChannels {
			diags = append(diags, schedDiag(RuleSchedOverlap, "",
				fmt.Sprintf("overlapping leases hold %d GPU + %d PIM channels at cycle %d, machine has %d + %d",
					gpu, pim, e.at, c.GPUChannels, c.PIMChannels)))
			return diags // later sums are corrupted by the first breach; one finding suffices
		}
	}
	return diags
}

// refCheckFrontier verifies the release log: stamps are recorded in release
// order, so they must be nondecreasing, each must name a recorded lease,
// and each must cover the released lease's end (the frontier is the max
// completion seen so far).
func refCheckFrontier(c ScheduleCertificate, leases map[uint64]ScheduleLease) []Diagnostic {
	var diags []Diagnostic
	var prev int64
	for i, f := range c.Frontiers {
		if f.Frontier < prev {
			diags = append(diags, schedDiag(RuleSchedFrontier, "",
				fmt.Sprintf("frontier rewound from %d to %d at release %d (lease %d)",
					prev, f.Frontier, i, f.LeaseID)))
		}
		prev = f.Frontier
		l, ok := leases[f.LeaseID]
		if !ok {
			diags = append(diags, schedDiag(RuleSchedFrontier, "",
				fmt.Sprintf("release %d stamps unknown lease %d", i, f.LeaseID)))
			continue
		}
		if f.Frontier < l.End {
			diags = append(diags, schedDiag(RuleSchedFrontier, l.Model,
				fmt.Sprintf("release %d of lease %d stamps frontier %d before the lease end %d",
					i, f.LeaseID, f.Frontier, l.End)))
		}
	}
	return diags
}

// refCheckRequests verifies each request against its lease (SR-LEASE) and
// its own stage arithmetic (SR-PARTITION).
func refCheckRequests(c ScheduleCertificate, leases map[uint64]ScheduleLease) []Diagnostic {
	var diags []Diagnostic
	for _, r := range c.Requests {
		who := r.ID
		if who == "" {
			who = fmt.Sprintf("request(model=%s, arrival=%d)", r.Model, r.Arrival)
		}
		l, ok := leases[r.LeaseID]
		switch {
		case !ok:
			diags = append(diags, schedDiag(RuleSchedLease, r.Model,
				fmt.Sprintf("%s bound to unknown lease %d", who, r.LeaseID)))
		case r.Model != l.Model:
			diags = append(diags, schedDiag(RuleSchedLease, r.Model,
				fmt.Sprintf("%s rode lease %d of model %q", who, l.ID, l.Model)))
		case r.Start != l.Start || r.End <= r.Start || r.End > l.End:
			diags = append(diags, schedDiag(RuleSchedLease, r.Model,
				fmt.Sprintf("%s window [%d, %d] outside its lease [%d, %d)", who, r.Start, r.End, l.Start, l.End)))
		case r.Arrival > r.Start:
			diags = append(diags, schedDiag(RuleSchedLease, r.Model,
				fmt.Sprintf("%s placed at %d before its arrival %d", who, r.Start, r.Arrival)))
		}
		// Stage identities: BatchWait spans arrival → batch formation,
		// LeaseWait spans batch → lease start, Execute spans the lease, and
		// the three partition Latency == End - Arrival exactly.
		switch {
		case r.BatchWait < 0 || r.LeaseWait < 0 || r.Execute < 0:
			diags = append(diags, schedDiag(RuleSchedPartition, r.Model,
				fmt.Sprintf("%s has a negative stage (batchWait %d, leaseWait %d, execute %d)",
					who, r.BatchWait, r.LeaseWait, r.Execute)))
		case r.BatchWait != r.BatchArrival-r.Arrival,
			r.LeaseWait != r.Start-r.BatchArrival,
			r.Execute != r.End-r.Start,
			r.Latency != r.End-r.Arrival,
			r.BatchWait+r.LeaseWait+r.Execute != r.Latency:
			diags = append(diags, schedDiag(RuleSchedPartition, r.Model,
				fmt.Sprintf("%s stages %d+%d+%d do not partition latency %d (arrival %d, batch %d, start %d, end %d)",
					who, r.BatchWait, r.LeaseWait, r.Execute, r.Latency, r.Arrival, r.BatchArrival, r.Start, r.End)))
		}
	}
	return diags
}

// refCheckWindows verifies each lease's batch against the policy it was
// formed under (its lease's, or else its model's): the member count matches
// the recorded batch size and stays within MaxBatch, and — when the
// virtual window is armed — the members' arrival stamps span at most
// WindowCycles. The spread bound assumes a uniform arrival mode per
// batch, which both served modes satisfy: frontier-stamped live traffic
// shares one stamp (spread 0) and trace replay pins every arrival under
// the window discipline.
func refCheckWindows(c ScheduleCertificate, leases map[uint64]ScheduleLease) []Diagnostic {
	members := map[uint64][]ScheduleRequest{}
	for _, r := range c.Requests {
		if _, ok := leases[r.LeaseID]; ok {
			members[r.LeaseID] = append(members[r.LeaseID], r)
		}
	}
	var diags []Diagnostic
	for _, l := range c.Leases {
		ms := members[l.ID]
		if len(ms) != l.Batch {
			diags = append(diags, schedDiag(RuleSchedWindow, l.Model,
				fmt.Sprintf("lease %d records batch %d but %d member requests", l.ID, l.Batch, len(ms))))
			continue
		}
		pol, ok := c.Policies[l.Model]
		if own, found := c.LeasePolicies[l.ID]; found {
			pol, ok = own, true
		}
		if !ok {
			continue
		}
		if pol.MaxBatch > 0 && l.Batch > pol.MaxBatch {
			diags = append(diags, schedDiag(RuleSchedWindow, l.Model,
				fmt.Sprintf("lease %d batched %d requests, policy allows %d", l.ID, l.Batch, pol.MaxBatch)))
		}
		if pol.WindowCycles > 0 && len(ms) > 1 {
			lo, hi := ms[0].Arrival, ms[0].Arrival
			for _, m := range ms[1:] {
				if m.Arrival < lo {
					lo = m.Arrival
				}
				if m.Arrival > hi {
					hi = m.Arrival
				}
			}
			if hi-lo > pol.WindowCycles {
				diags = append(diags, schedDiag(RuleSchedWindow, l.Model,
					fmt.Sprintf("lease %d coalesced arrivals %d cycles apart, window is %d", l.ID, hi-lo, pol.WindowCycles)))
			}
		}
	}
	return diags
}

// ReferenceFleet is Fleet over the reference hop and schedule checkers;
// the placement and graph checks are shared.
func ReferenceFleet(c FleetCertificate) []Diagnostic {
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
	diags = append(diags, checkPlacements(c.Placements, machines)...)
	graphs := map[string]FleetGraph{}
	for _, g := range c.Graphs {
		graphs[g.Name] = g
		diags = append(diags, checkGraph(g)...)
	}
	diags = append(diags, refCheckHops(c, machines, graphs)...)
	for _, name := range sortedKeys(c.Schedules) {
		diags = append(diags, ReferenceSchedule(c.Schedules[name])...)
	}
	return diags
}

// refCheckHops is the string-keyed hop checker (the placement set keyed
// by model+"\x00"+machine, a label formatted per hop). It verifies the routed hops: each names a known machine
// (FL-MACHINE), rides a recorded placement of its model on that machine
// and a defined graph node where it claims one, has a non-inverted
// window, and — when gated — starts no earlier than the completion of
// the hop it waited on, within the same route (FL-ROUTE).
func refCheckHops(c FleetCertificate, machines map[string]FleetMachine, graphs map[string]FleetGraph) []Diagnostic {
	placed := map[string]bool{} // model + "\x00" + machine, any log entry
	for _, p := range c.Placements {
		placed[p.Model+"\x00"+p.Machine] = true
	}
	var diags []Diagnostic
	for i, h := range c.Hops {
		who := fmt.Sprintf("hop %d (route %d, model %q)", i, h.Route, h.Model)
		if _, ok := machines[h.Machine]; !ok {
			diags = append(diags, fleetDiag(RuleFleetMachine, h.Machine,
				fmt.Sprintf("%s ran on unknown machine %q", who, h.Machine)))
			continue
		}
		if !placed[h.Model+"\x00"+h.Machine] {
			diags = append(diags, fleetDiag(RuleFleetRoute, h.Model,
				fmt.Sprintf("%s ran on %q where the model was never placed", who, h.Machine)))
		}
		if h.Graph != "" {
			g, ok := graphs[h.Graph]
			if !ok {
				diags = append(diags, fleetDiag(RuleFleetRoute, h.Graph,
					fmt.Sprintf("%s claims unregistered graph %q", who, h.Graph)))
			} else if h.Node != "" {
				found := false
				for _, n := range g.Nodes {
					if n.Name == h.Node {
						found = true
						break
					}
				}
				if !found {
					diags = append(diags, fleetDiag(RuleFleetRoute, h.Graph,
						fmt.Sprintf("%s claims undefined node %q of graph %q", who, h.Node, h.Graph)))
				}
			}
		}
		if h.End < h.Arrival {
			diags = append(diags, fleetDiag(RuleFleetRoute, h.Model,
				fmt.Sprintf("%s window [%d, %d] is inverted", who, h.Arrival, h.End)))
		}
		if h.After >= 0 {
			switch {
			case h.After >= len(c.Hops):
				diags = append(diags, fleetDiag(RuleFleetRoute, h.Model,
					fmt.Sprintf("%s gated on out-of-range hop %d", who, h.After)))
			case c.Hops[h.After].Route != h.Route:
				diags = append(diags, fleetDiag(RuleFleetRoute, h.Model,
					fmt.Sprintf("%s gated on hop %d of a different route %d", who, h.After, c.Hops[h.After].Route)))
			case h.Arrival < c.Hops[h.After].End:
				diags = append(diags, fleetDiag(RuleFleetRoute, h.Model,
					fmt.Sprintf("%s arrived at %d before its gating hop %d completed at %d",
						who, h.Arrival, h.After, c.Hops[h.After].End)))
			}
		}
	}
	return diags
}
