package verify_test

import (
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"pimflow/internal/fleet"
	"pimflow/internal/load"
	"pimflow/internal/serve"
	"pimflow/internal/verify"
)

// The index-table checkers' differential tests: Schedule and Fleet must
// return exactly the diagnostics of the map-based references, on real
// replay certificates (clean) and on seeded forgeries (dirty), down to
// order and message text.

// burstyCert replays the builtin bursty scenario (two mobilenet-v2
// instances, MMPP overload, most requests shed) for n requests on a
// certifying server and returns its schedule certificate.
func burstyCert(tb testing.TB, n int) verify.ScheduleCertificate {
	tb.Helper()
	return scenarioCert(tb, "bursty", n)
}

// scenarioCert replays a builtin single-server scenario for n requests
// on a certifying server and returns its schedule certificate.
func scenarioCert(tb testing.TB, name string, n int) verify.ScheduleCertificate {
	tb.Helper()
	sc, err := load.Builtin(name)
	if err != nil {
		tb.Fatal(err)
	}
	sc.Requests = n
	adm, err := serve.ParseAdmissionPolicy(sc.Admission)
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := serve.NewServer(serve.Config{QueueDepth: sc.QueueDepth, Admission: adm, Certify: true})
	if err != nil {
		tb.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	if err := load.LoadModels(srv, sc); err != nil {
		tb.Fatal(err)
	}
	reqs, err := load.Generate(sc)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := load.Replay(srv, sc, reqs); err != nil {
		tb.Fatal(err)
	}
	return srv.Certificate()
}

// graphFleetCert replays n Poisson requests through four machines: the
// mobilenet pair at two replicas each plus a "chain" sequence graph over
// two backends, every model on a 16/8 slice. It returns the fleet
// certificate, hops and per-machine schedules included.
func graphFleetCert(tb testing.TB, n int) verify.FleetCertificate {
	tb.Helper()
	base, err := load.Builtin("poisson")
	if err != nil {
		tb.Fatal(err)
	}
	base.Requests = n
	base.RatePerMCycle = 3
	base.Models = append(base.Models, load.ModelLoad{Name: "chain"})
	backend := func(name, model string) load.ModelLoad {
		return load.ModelLoad{Name: name, Model: model, Policy: "PIMFlow",
			TotalChannels: 16, PIMChannels: 8, MaxBatch: 8, WindowCycles: 200_000}
	}
	sc := fleet.Scenario{
		Scenario: base,
		Machines: 4,
		Replicas: map[string]int{"mobilenet-gold": 2, "mobilenet-bronze": 2},
		Backends: []load.ModelLoad{backend("effnet", "efficientnet-v1-b0"), backend("mnas", "mnasnet-1.0")},
		Graphs: []fleet.Graph{{Name: "chain", Root: "root", Nodes: []fleet.GraphNode{
			{Name: "root", Type: "sequence", Steps: []fleet.GraphStep{{Model: "effnet"}, {Model: "mnas"}}},
		}}},
		Certify: true,
	}
	f, err := fleet.NewScenarioFleet(sc, nil, nil)
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Shutdown(context.Background())
	reqs, err := load.Generate(sc.Scenario)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := fleet.Replay(f, sc, reqs); err != nil {
		tb.Fatal(err)
	}
	return f.Certificate()
}

func sameDiags(t *testing.T, what string, got, want []verify.Diagnostic) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: diagnostics differ from the reference\n got %v\nwant %v", what, got, want)
	}
}

// fleetScaleCert replays n Poisson requests at 8/Mcycle through a fleet
// of the given size with both mobilenet instances on every machine (the
// fleet1/fleet2/fleet4 builtin scaling points) and returns its
// certificate.
func fleetScaleCert(tb testing.TB, machines, n int) verify.FleetCertificate {
	tb.Helper()
	base, err := load.Builtin("poisson")
	if err != nil {
		tb.Fatal(err)
	}
	base.Requests, base.RatePerMCycle = n, 8
	sc := fleet.Scenario{Scenario: base, Machines: machines, Replicas: map[string]int{}, Certify: true}
	for _, m := range base.Models {
		sc.Replicas[m.Name] = machines
	}
	f, err := fleet.NewScenarioFleet(sc, nil, nil)
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Shutdown(context.Background())
	reqs, err := load.Generate(sc.Scenario)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := fleet.Replay(f, sc, reqs); err != nil {
		tb.Fatal(err)
	}
	return f.Certificate()
}

// The replay certificates of every builtin scenario (poisson, diurnal,
// bursty, and the fleet1/fleet2/fleet4 scaling points) and of the
// fleet-graph workload check clean, exactly as the references check them.
func TestScheduleMatchesReferenceOnReplay(t *testing.T) {
	for _, name := range []string{"poisson", "diurnal", "bursty"} {
		c := scenarioCert(t, name, 3000)
		if len(c.Requests) == 0 {
			t.Fatalf("%s replay certified no requests", name)
		}
		sameDiags(t, name+" replay", verify.Schedule(c), verify.ReferenceSchedule(c))
	}
	for _, machines := range []int{1, 2, 4} {
		fc := fleetScaleCert(t, machines, 3000)
		sameDiags(t, fmt.Sprintf("fleet%d replay", machines), verify.Fleet(fc), verify.ReferenceFleet(fc))
	}
	fc := graphFleetCert(t, 3000)
	if len(fc.Hops) == 0 {
		t.Fatal("fleet replay recorded no hops")
	}
	sameDiags(t, "fleet-graph replay", verify.Fleet(fc), verify.ReferenceFleet(fc))
}

// backSteps counts the leases with a nonempty window that start below
// an earlier such lease's start: the ones SR-OVERLAP's sweep cannot take
// in recording order.
func backSteps(ls []verify.ScheduleLease) int {
	n, top := 0, int64(math.MinInt64)
	for _, l := range ls {
		switch {
		case l.Start >= l.End:
		case l.Start < top:
			n++
		default:
			top = l.Start
		}
	}
	return n
}

// TestScheduleMatchesReferenceOnBackSteps holds the sweep's side list to
// the reference: fleet-graph machine schedules, whose leases step back
// in start order, clean and forged.
func TestScheduleMatchesReferenceOnBackSteps(t *testing.T) {
	fc := graphFleetCert(t, 3000)
	names := make([]string, 0, len(fc.Schedules))
	for name := range fc.Schedules {
		names = append(names, name)
	}
	slices.Sort(names)
	rng := rand.New(rand.NewSource(1))
	steps, forged := 0, 0
	for _, name := range names {
		s := fc.Schedules[name]
		steps += backSteps(s.Leases)
		sameDiags(t, name, verify.Schedule(s), verify.ReferenceSchedule(s))
		if len(s.Leases) < 4 || len(s.Frontiers) < 2 {
			continue
		}
		for i := 0; i < 400; i++ {
			c := forgeSchedule(rng, s)
			if backSteps(c.Leases) > 0 {
				forged++
			}
			sameDiags(t, fmt.Sprintf("%s forgery %d", name, i), verify.Schedule(c), verify.ReferenceSchedule(c))
		}
	}
	t.Logf("back-steps in the clean schedules: %d; forgeries with back-steps: %d", steps, forged)
	if steps == 0 || forged == 0 {
		t.Fatal("no schedule steps back in start order: the sweep's side list never ran")
	}
}

// cloneSchedule deep-copies the parts of a certificate a forgery edits.
func cloneSchedule(c verify.ScheduleCertificate) verify.ScheduleCertificate {
	c.Leases = slices.Clone(c.Leases)
	c.Requests = slices.Clone(c.Requests)
	c.Frontiers = slices.Clone(c.Frontiers)
	pol := make(map[string]verify.SchedulePolicy, len(c.Policies))
	for k, v := range c.Policies {
		pol[k] = v
	}
	c.Policies = pol
	c.LeasePolicies = maps.Clone(c.LeasePolicies)
	return c
}

// forgeSchedule applies one to four seeded faults to a copy of c: every
// SR-* rule's trigger, plus request IDs set on some copies and left empty
// on others (the rules label a request by ID, or by model and arrival).
func forgeSchedule(rng *rand.Rand, c verify.ScheduleCertificate) verify.ScheduleCertificate {
	c = cloneSchedule(c)
	if rng.Intn(2) == 0 {
		for i := range c.Requests {
			c.Requests[i].ID = fmt.Sprintf("r%06d", i)
		}
	}
	lease := func() *verify.ScheduleLease { return &c.Leases[rng.Intn(len(c.Leases))] }
	req := func() *verify.ScheduleRequest { return &c.Requests[rng.Intn(len(c.Requests))] }
	for k := 1 + rng.Intn(4); k > 0; k-- {
		switch rng.Intn(16) {
		case 0: // duplicate lease ID
			lease().ID = lease().ID
		case 1: // overlapping leases: one lease grows over its successors
			l := lease()
			l.End += int64(rng.Intn(5_000_000))
		case 2: // oversubscribed demand
			l := lease()
			l.GPU += c.GPUChannels / 2
		case 3: // empty or inverted window
			l := lease()
			l.End = l.Start - int64(rng.Intn(2))
		case 4: // empty batch
			lease().Batch = 0
		case 13: // reshaped demands granted at one instant: the sweep's tie order decides the breach it reports
			a, b := lease(), lease()
			b.Start, b.End = a.Start, max(b.End, a.Start+1)
			a.GPU, a.PIM = rng.Intn(c.GPUChannels+1), rng.Intn(c.PIMChannels+1)
			b.GPU, b.PIM = rng.Intn(c.GPUChannels+1), rng.Intn(c.PIMChannels+1)
		case 5: // rewound frontier
			if len(c.Frontiers) > 1 {
				f := &c.Frontiers[1+rng.Intn(len(c.Frontiers)-1)]
				f.Frontier -= int64(1 + rng.Intn(3_000_000))
			}
		case 6: // frontier on an unknown lease
			c.Frontiers[rng.Intn(len(c.Frontiers))].LeaseID = 1 << 40
		case 7: // request on an unknown lease
			req().LeaseID = 1<<40 + uint64(rng.Intn(3))
		case 8: // request on a foreign lease (another model's, or another window)
			req().LeaseID = lease().ID
		case 9: // request relabeled to another model
			req().Model = "forged-model"
		case 10: // broken stage partition
			r := req()
			switch rng.Intn(3) {
			case 0:
				r.BatchWait = -1
			case 1:
				r.Execute++
			default:
				r.Latency += int64(rng.Intn(100))
			}
		case 11: // arrival after placement
			r := req()
			r.Arrival = r.Start + 1
		case 12: // oversized batch: the policy shrinks and a lease over-reports
			l := lease()
			pol := c.Policies[l.Model]
			pol.MaxBatch = 1
			c.Policies[l.Model] = pol
			lease().Batch++
		case 14: // a lease batched under another policy than its model's (its name was reloaded)
			if c.LeasePolicies == nil {
				c.LeasePolicies = map[uint64]verify.SchedulePolicy{}
			}
			c.LeasePolicies[lease().ID] = verify.SchedulePolicy{MaxBatch: rng.Intn(4), WindowCycles: int64(rng.Intn(3)) * 100_000}
		default: // window spread: one member arrives far from its batch
			r := req()
			r.Arrival -= int64(1 + rng.Intn(1_000_000))
		}
	}
	return c
}

func TestScheduleMatchesReferenceOnForgeries(t *testing.T) {
	base := burstyCert(t, 400)
	if len(base.Leases) < 4 || len(base.Frontiers) < 2 {
		t.Fatalf("base certificate too small: %d leases", len(base.Leases))
	}
	rng := rand.New(rand.NewSource(1))
	fired := map[string]bool{}
	for i := 0; i < 3000; i++ {
		c := forgeSchedule(rng, base)
		want := verify.ReferenceSchedule(c)
		sameDiags(t, fmt.Sprintf("forgery %d", i), verify.Schedule(c), want)
		for _, d := range want {
			fired[d.Rule] = true
		}
	}
	for _, rule := range []string{verify.RuleSchedDemand, verify.RuleSchedOverlap, verify.RuleSchedFrontier,
		verify.RuleSchedLease, verify.RuleSchedWindow, verify.RuleSchedPartition} {
		if !fired[rule] {
			t.Errorf("no forgery tripped %s", rule)
		}
	}
}

// forgeFleet applies one to four seeded hop faults to a copy of c, and
// on some copies schedule faults inside one busy machine's certificate.
func forgeFleet(rng *rand.Rand, c verify.FleetCertificate, machines, busy []string) verify.FleetCertificate {
	c.Hops = slices.Clone(c.Hops)
	hop := func() *verify.FleetHop { return &c.Hops[rng.Intn(len(c.Hops))] }
	gated := func() *verify.FleetHop { // a hop whose gate an earlier fault left in range
		for {
			if h := hop(); h.After >= 0 && h.After < len(c.Hops) {
				return h
			}
		}
	}
	for k := 1 + rng.Intn(4); k > 0; k-- {
		switch rng.Intn(9) {
		case 0: // unknown machine
			hop().Machine = "ghost"
		case 1: // model never placed anywhere
			hop().Model = "ghost-model"
		case 2: // model placed, but on another machine only
			h := hop()
			h.Machine = machines[rng.Intn(len(machines))]
			h.Model = "effnet"
		case 3: // unregistered graph
			hop().Graph = "ghost-graph"
		case 4: // undefined node of a registered graph
			h := hop()
			h.Graph, h.Node = "chain", "ghost-node"
		case 5: // inverted window
			h := hop()
			h.End = h.Arrival - 1 - int64(rng.Intn(10))
		case 6: // gate out of range
			gated().After = len(c.Hops) + rng.Intn(3)
		case 7: // gate on another route's hop
			h := gated()
			for j := range c.Hops {
				if c.Hops[j].Route != h.Route {
					h.After = j
					break
				}
			}
		default: // arrival before the gating hop's end
			h := gated()
			h.Arrival = c.Hops[h.After].End - 1 - int64(rng.Intn(1000))
		}
	}
	if rng.Intn(3) == 0 {
		sched := make(map[string]verify.ScheduleCertificate, len(c.Schedules))
		for k, v := range c.Schedules {
			sched[k] = v
		}
		name := busy[rng.Intn(len(busy))]
		sched[name] = forgeSchedule(rng, sched[name])
		c.Schedules = sched
	}
	return c
}

func TestFleetMatchesReferenceOnForgeries(t *testing.T) {
	base := graphFleetCert(t, 600)
	var machines, busy []string
	for _, m := range base.Machines {
		machines = append(machines, m.Name)
		if s := base.Schedules[m.Name]; len(s.Leases) >= 4 && len(s.Frontiers) >= 2 {
			busy = append(busy, m.Name)
		}
	}
	if len(busy) == 0 {
		t.Fatal("no machine certified enough leases to forge")
	}
	gated := 0
	for _, h := range base.Hops {
		if h.After >= 0 {
			gated++
		}
	}
	if gated == 0 {
		t.Fatal("base certificate has no gated hop")
	}
	rng := rand.New(rand.NewSource(1))
	fired := map[string]bool{}
	for i := 0; i < 1500; i++ {
		c := forgeFleet(rng, base, machines, busy)
		want := verify.ReferenceFleet(c)
		sameDiags(t, fmt.Sprintf("forgery %d", i), verify.Fleet(c), want)
		for _, d := range want {
			fired[d.Rule] = true
		}
	}
	for _, rule := range []string{verify.RuleFleetMachine, verify.RuleFleetRoute, verify.RuleSchedLease} {
		if !fired[rule] {
			t.Errorf("no forgery tripped %s", rule)
		}
	}
}

// The old placement set keyed hops by model+"\x00"+machine, so a model
// and a machine whose names carry a NUL could pass for another placed
// pair. The struct key keeps the two names apart.
func TestFleetHopPlacementKeyKeepsNamesApart(t *testing.T) {
	c := verify.FleetCertificate{
		Machines: []verify.FleetMachine{
			{Name: "b\x00c", GPUChannels: 16, PIMChannels: 16},
			{Name: "c", GPUChannels: 16, PIMChannels: 16},
		},
		Placements: []verify.FleetPlacement{{Model: "a", Machine: "b\x00c", GPU: 8, PIM: 8, Active: true}},
		Hops:       []verify.FleetHop{{Route: 1, Model: "a\x00b", Machine: "c", Arrival: 10, End: 20, After: -1}},
	}
	diags := verify.Fleet(c)
	if len(diags) != 1 || diags[0].Rule != verify.RuleFleetRoute {
		t.Fatalf("hop of an unplaced model: got %v, want one %s", diags, verify.RuleFleetRoute)
	}
}

// bytesPerCall returns the bytes one call of f allocates on one P, where
// the worker pool runs inline (as under testing.AllocsPerRun).
func bytesPerCall(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// leaseBytes bounds what a clean certificate may cost per lease: the
// sorted lease-ID index (16 bytes) and the member spans (24), with room
// to spare but none for an event per lease boundary (48 more).
const leaseBytes = 48

// A clean certificate costs the checkers a constant number of
// allocations, whatever its size: labels are formatted only when a rule
// fires, the lease tables are one slice each, and SR-OVERLAP's sweep
// holds its side list and heap in one more. Its bytes grow by at most
// leaseBytes per lease.
func TestScheduleAllocsFlat(t *testing.T) {
	small, large := burstyCert(t, 1000), burstyCert(t, 4000)
	if len(large.Requests) < 2*len(small.Requests) {
		t.Fatalf("certificates too close in size: %d vs %d requests", len(small.Requests), len(large.Requests))
	}
	check := func(c verify.ScheduleCertificate) {
		if diags := verify.Schedule(c); len(diags) != 0 {
			t.Fatal(verify.AsError(diags))
		}
	}
	allocs := func(c verify.ScheduleCertificate) float64 { return testing.AllocsPerRun(5, func() { check(c) }) }
	if a, b := allocs(small), allocs(large); a != b {
		t.Fatalf("Schedule allocates %v objects on %d requests but %v on %d", a, len(small.Requests), b, len(large.Requests))
	}
	if got, limit := bytesPerCall(func() { check(large) }), uint64(leaseBytes*len(large.Leases)+8<<10); got > limit {
		t.Fatalf("Schedule allocates %d bytes on %d leases, want at most %d", got, len(large.Leases), limit)
	}
}

func TestFleetAllocsFlat(t *testing.T) {
	small, large := graphFleetCert(t, 1000), graphFleetCert(t, 4000)
	if len(large.Hops) < 2*len(small.Hops) {
		t.Fatalf("certificates too close in size: %d vs %d hops", len(small.Hops), len(large.Hops))
	}
	check := func(c verify.FleetCertificate) {
		if diags := verify.Fleet(c); len(diags) != 0 {
			t.Fatal(verify.AsError(diags))
		}
	}
	allocs := func(c verify.FleetCertificate) float64 { return testing.AllocsPerRun(5, func() { check(c) }) }
	if a, b := allocs(small), allocs(large); a != b {
		t.Fatalf("Fleet allocates %v objects on %d hops but %v on %d", a, len(small.Hops), b, len(large.Hops))
	}
	leases := 0
	for _, s := range large.Schedules {
		leases += len(s.Leases)
	}
	if got, limit := bytesPerCall(func() { check(large) }), uint64(leaseBytes*leases+32<<10); got > limit {
		t.Fatalf("Fleet allocates %d bytes on %d leases, want at most %d", got, leases, limit)
	}
}
