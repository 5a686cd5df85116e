package fleet_test

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"pimflow/internal/fleet"
	"pimflow/internal/load"
	"pimflow/internal/obs"
	"pimflow/internal/serve"
	"pimflow/internal/verify"
)

// toyFleetScenario mirrors load's toy workload — two toy-model
// instances on 16/8 slices, rate ~2x one machine's batched capacity so
// admission decisions actually happen — lifted to a fleet.
func toyFleetScenario(seed int64, n int, process string, machines int, replicas map[string]int) fleet.Scenario {
	return fleet.Scenario{
		Scenario: load.Scenario{
			Name:             "fleet-toy-" + process,
			Seed:             seed,
			Requests:         n,
			Process:          process,
			RatePerMCycle:    300,
			DiurnalAmplitude: 0.8,
			DiurnalPeriod:    200_000,
			BurstFactor:      8,
			BurstDwell:       50_000,
			QueueDepth:       32,
			Admission:        "shed-oldest",
			Models: []load.ModelLoad{
				{Name: "toy-gold", Model: "toy", Policy: "PIMFlow", TotalChannels: 16, PIMChannels: 8,
					SLO: "gold", MaxBatch: 8, WindowCycles: 20_000},
				{Name: "toy-bronze", Model: "toy", Policy: "PIMFlow", TotalChannels: 16, PIMChannels: 8,
					SLO: "bronze", MaxBatch: 8, WindowCycles: 20_000},
			},
		},
		Machines: machines,
		Replicas: replicas,
		Certify:  true,
	}
}

func newFleet(t testing.TB, sc fleet.Scenario) *fleet.Fleet {
	t.Helper()
	f, err := fleet.NewScenarioFleet(sc, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Shutdown(context.Background()) })
	return f
}

func runFleet(t testing.TB, sc fleet.Scenario, reqs []load.Request) (*fleet.Fleet, *load.Report) {
	t.Helper()
	f := newFleet(t, sc)
	rep, err := fleet.Replay(f, sc, reqs)
	if err != nil {
		t.Fatal(err)
	}
	return f, rep
}

func stripWall(r *load.Report) load.Report {
	c := *r
	c.WallSeconds, c.ReqPerSec = 0, 0
	return c
}

// The tentpole equivalence property: a 1-machine fleet is the serving
// stack — the same seeded trace replayed through fleet.Replay and
// through load.Replay on a bare server produces identical reports AND
// identical schedule certificates (so per-request virtual-cycle
// latencies match lease for lease), across every arrival process.
func TestOneMachineFleetMatchesServe(t *testing.T) {
	for _, process := range []string{"poisson", "diurnal", "bursty"} {
		sc := toyFleetScenario(11, 2000, process, 1, nil)
		reqs, err := load.Generate(sc.Scenario)
		if err != nil {
			t.Fatal(err)
		}

		adm, err := serve.ParseAdmissionPolicy(sc.Admission)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := serve.NewServer(serve.Config{QueueDepth: sc.QueueDepth, Admission: adm, Certify: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Shutdown(context.Background()) })
		if err := load.LoadModels(srv, sc.Scenario); err != nil {
			t.Fatal(err)
		}
		direct, err := load.Replay(srv, sc.Scenario, reqs)
		if err != nil {
			t.Fatal(err)
		}

		f, frep := runFleet(t, sc, reqs)
		if !reflect.DeepEqual(stripWall(direct), stripWall(frep)) {
			t.Fatalf("%s: fleet report diverged from serve\n serve: %+v\n fleet: %+v",
				process, stripWall(direct), stripWall(frep))
		}
		if !reflect.DeepEqual(srv.Certificate(), f.Machine(0).Certificate()) {
			t.Fatalf("%s: fleet machine schedule diverged from serve schedule", process)
		}
	}
}

// Replica monotonicity: under a fixed seeded trace, replicating the hot
// model onto a second machine never increases p99 — the JSQ router can
// only relieve the queue the single replica was absorbing alone. The
// rate is heavy (deep queues) but below the shed point: when overload
// sheds requests the two configs serve different populations and their
// percentiles rank different requests, so the property is stated — and
// pinned — on the full served set. Checked across all three processes.
func TestAddReplicaNeverRaisesP99(t *testing.T) {
	scenario := func(process string, replicas map[string]int) fleet.Scenario {
		sc := toyFleetScenario(7, 3000, process, 2, replicas)
		sc.QueueDepth = 4096
		// Mean rates sit just under each process's shed point (bursty
		// spikes to 8x its base during a burst).
		sc.RatePerMCycle = 180
		if process == "bursty" {
			sc.RatePerMCycle = 55
		}
		return sc
	}
	for _, process := range []string{"poisson", "diurnal", "bursty"} {
		base := scenario(process, nil)
		reqs, err := load.Generate(base.Scenario)
		if err != nil {
			t.Fatal(err)
		}
		_, one := runFleet(t, base, reqs)
		_, two := runFleet(t, scenario(process, map[string]int{"toy-gold": 2}), reqs)

		if one.Shed+one.Rejected+two.Shed+two.Rejected != 0 {
			t.Fatalf("%s: scenario saturated (shed %d/%d, rejected %d/%d) — property needs equal served sets",
				process, one.Shed, two.Shed, one.Rejected, two.Rejected)
		}
		if one.Served != two.Served || one.Served != len(reqs) {
			t.Fatalf("%s: served sets differ: %d vs %d of %d", process, one.Served, two.Served, len(reqs))
		}
		if two.P99 > one.P99 {
			t.Fatalf("%s: adding a replica raised p99: %d -> %d", process, one.P99, two.P99)
		}
	}
}

// Determinism at fleet scale: identical scenario (machines, replicas,
// graphs), identical report — fresh fleets, every run.
func TestFleetReplayDeterministic(t *testing.T) {
	sc := toyFleetScenario(23, 2000, "bursty", 2, map[string]int{"toy-gold": 2})
	reqs, err := load.Generate(sc.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	_, a := runFleet(t, sc, reqs)
	_, b := runFleet(t, sc, reqs)
	if !reflect.DeepEqual(stripWall(a), stripWall(b)) {
		t.Fatalf("same scenario, different reports:\n a: %+v\n b: %+v", stripWall(a), stripWall(b))
	}
}

// Bin-packing safety: eager placement never oversubscribes a machine's
// channel groups. The placement log is summed directly and the full
// certificate must pass FL-CAPACITY; the dynamic half (SR-DEMAND per
// machine) rides along in every certified replay in this suite.
func TestBinPackingNeverOversubscribes(t *testing.T) {
	f, err := fleet.New(fleet.Config{Machines: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Shutdown(context.Background()) })

	spec := func(name string, total, pim int) serve.ModelSpec {
		return serve.ModelSpec{Name: name, Model: "toy", Policy: "PIMFlow", TotalChannels: total, PIMChannels: pim}
	}
	if err := f.Deploy(spec("big", 32, 16), 1); err != nil { // 16+16: a whole machine
		t.Fatal(err)
	}
	if err := f.Deploy(spec("mid", 16, 8), 2); err != nil { // 8+8, two replicas
		t.Fatal(err)
	}
	small := 0
	for { // 4+4 each; pack until the fleet is genuinely full
		if err := f.Deploy(spec("small"+string(rune('a'+small)), 8, 4), 1); err != nil {
			if !errors.Is(err, fleet.ErrNoCapacity) {
				t.Fatal(err)
			}
			break
		}
		small++
	}
	if small == 0 {
		t.Fatal("no small model fit a 3-machine fleet")
	}

	cert := f.Certificate()
	used := map[string]serve.Demand{}
	for _, p := range cert.Placements {
		if !p.Active {
			continue
		}
		d := used[p.Machine]
		d.GPU += p.GPU
		d.PIM += p.PIM
		used[p.Machine] = d
	}
	for _, m := range cert.Machines {
		if used[m.Name].GPU > m.GPUChannels || used[m.Name].PIM > m.PIMChannels {
			t.Fatalf("machine %s oversubscribed: %+v over %d+%d", m.Name, used[m.Name], m.GPUChannels, m.PIMChannels)
		}
	}
	if diags := verify.Fleet(cert); len(diags) != 0 {
		t.Fatalf("packed fleet certificate dirty: %v", diags)
	}
	for _, d := range f.Deployments() {
		if d.Name == "mid" && len(d.Replicas) != 2 {
			t.Fatalf("mid replicas = %v, want 2 distinct machines", d.Replicas)
		}
	}
}

// Splitter routing is a pure function of (seed, route): identical
// scenarios split identically, and the weighted draw actually skews
// traffic toward the heavy branch.
func TestSplitterDeterministic(t *testing.T) {
	sc := fleet.Scenario{
		Scenario: load.Scenario{
			Name: "fleet-split", Seed: 31, Requests: 1200, Process: "poisson",
			RatePerMCycle: 100, QueueDepth: 64, Admission: "shed-oldest",
			Models: []load.ModelLoad{{Name: "split"}},
		},
		Machines: 2,
		Backends: []load.ModelLoad{
			{Name: "toy-a", Model: "toy", Policy: "PIMFlow", TotalChannels: 16, PIMChannels: 8, MaxBatch: 8, WindowCycles: 20_000},
			{Name: "toy-b", Model: "toy", Policy: "PIMFlow", TotalChannels: 16, PIMChannels: 8, MaxBatch: 8, WindowCycles: 20_000},
		},
		Graphs: []fleet.Graph{{Name: "split", Root: "root", Nodes: []fleet.GraphNode{
			{Name: "root", Type: "splitter", Steps: []fleet.GraphStep{
				{Model: "toy-a", Weight: 3}, {Model: "toy-b", Weight: 1},
			}},
		}}},
		Certify: true,
	}
	reqs, err := load.Generate(sc.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	fa, a := runFleet(t, sc, reqs)
	_, b := runFleet(t, sc, reqs)
	if !reflect.DeepEqual(stripWall(a), stripWall(b)) {
		t.Fatalf("splitter replay not deterministic:\n a: %+v\n b: %+v", stripWall(a), stripWall(b))
	}
	byModel := map[string]int{}
	for _, h := range fa.Certificate().Hops {
		byModel[h.Model]++
	}
	if byModel["toy-a"] == 0 || byModel["toy-b"] == 0 {
		t.Fatalf("splitter starved a branch: %v", byModel)
	}
	if byModel["toy-a"] <= byModel["toy-b"] {
		t.Fatalf("3:1 split inverted: %v", byModel)
	}
}

// A Sequence across two whole-machine models forces every route to hop
// machines: placement must spread the models, each second hop's arrival
// must be pinned to the first hop's completion, and the route latency
// must close the telescoping sum.
func TestSequenceCrossMachinePinning(t *testing.T) {
	sc := fleet.Scenario{
		Scenario: load.Scenario{
			Name: "fleet-chain", Seed: 5, Requests: 300, Process: "poisson",
			RatePerMCycle: 40, QueueDepth: 64, Admission: "shed-oldest",
			Models: []load.ModelLoad{{Name: "chain"}},
		},
		Machines: 2,
		Backends: []load.ModelLoad{
			{Name: "front", Model: "toy", Policy: "PIMFlow", TotalChannels: 32, PIMChannels: 16, MaxBatch: 8, WindowCycles: 20_000},
			{Name: "back", Model: "toy", Policy: "PIMFlow", TotalChannels: 32, PIMChannels: 16, MaxBatch: 8, WindowCycles: 20_000},
		},
		Graphs: []fleet.Graph{{Name: "chain", Root: "root", Nodes: []fleet.GraphNode{
			{Name: "root", Type: "sequence", Steps: []fleet.GraphStep{
				{Model: "front"}, {Model: "back"},
			}},
		}}},
		Certify: true,
	}
	reqs, err := load.Generate(sc.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	f, rep := runFleet(t, sc, reqs)
	if rep.Served == 0 {
		t.Fatal("no routes served")
	}

	cert := f.Certificate()
	machinesSeen := map[string]bool{}
	routes := map[int64][]verify.FleetHop{}
	for _, h := range cert.Hops {
		machinesSeen[h.Machine] = true
		routes[h.Route] = append(routes[h.Route], h)
	}
	if len(machinesSeen) != 2 {
		t.Fatalf("whole-machine models did not spread: hops on %v", machinesSeen)
	}
	for route, hs := range routes {
		if len(hs) != 2 {
			t.Fatalf("route %d has %d hops, want 2", route, len(hs))
		}
		if hs[0].Model != "front" || hs[1].Model != "back" {
			t.Fatalf("route %d order: %s then %s", route, hs[0].Model, hs[1].Model)
		}
		if hs[0].Machine == hs[1].Machine {
			t.Fatalf("route %d stayed on %s", route, hs[0].Machine)
		}
		if hs[1].Arrival != hs[0].End {
			t.Fatalf("route %d second hop arrival %d not pinned to first hop end %d",
				route, hs[1].Arrival, hs[0].End)
		}
	}
}

// Ensemble branches run concurrently in virtual time and join at the
// slowest branch: route latency is max(branch end) - arrival.
func TestEnsembleJoinsAtSlowestBranch(t *testing.T) {
	sc := fleet.Scenario{
		Scenario: load.Scenario{
			Name: "fleet-ens", Seed: 9, Requests: 200, Process: "poisson",
			RatePerMCycle: 40, QueueDepth: 64, Admission: "shed-oldest",
			Models: []load.ModelLoad{{Name: "panel"}},
		},
		Machines: 2,
		Backends: []load.ModelLoad{
			{Name: "toy-a", Model: "toy", Policy: "PIMFlow", TotalChannels: 16, PIMChannels: 8, MaxBatch: 8, WindowCycles: 20_000},
			{Name: "toy-b", Model: "toy", Policy: "PIMFlow", TotalChannels: 16, PIMChannels: 8, MaxBatch: 8, WindowCycles: 20_000},
		},
		Graphs: []fleet.Graph{{Name: "panel", Root: "root", Nodes: []fleet.GraphNode{
			{Name: "root", Type: "ensemble", Steps: []fleet.GraphStep{
				{Model: "toy-a"}, {Model: "toy-b"},
			}},
		}}},
		Certify: true,
	}
	reqs, err := load.Generate(sc.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	f, rep := runFleet(t, sc, reqs)
	if rep.Served == 0 {
		t.Fatal("no routes served")
	}
	routes := map[int64][]verify.FleetHop{}
	var minArrival = map[int64]int64{}
	for _, h := range f.Certificate().Hops {
		routes[h.Route] = append(routes[h.Route], h)
		if _, ok := minArrival[h.Route]; !ok || h.Arrival < minArrival[h.Route] {
			minArrival[h.Route] = h.Arrival
		}
	}
	for route, hs := range routes {
		if len(hs) != 2 {
			t.Fatalf("route %d has %d hops, want 2 branches", route, len(hs))
		}
		if hs[0].Arrival != hs[1].Arrival {
			t.Fatalf("route %d branches issued at different cycles: %d vs %d",
				route, hs[0].Arrival, hs[1].Arrival)
		}
	}
}

// Modelmesh-style on-demand load: a request for a registered-but-
// unplaced model triggers placement, evicting least-recently-used
// models when the machine is full; the placement log keeps the history.
func TestOnDemandLoadEvictsLRU(t *testing.T) {
	sc := fleet.Scenario{
		Scenario: load.Scenario{
			Name: "fleet-lru", Seed: 1, QueueDepth: 16, Admission: "reject",
			Models: []load.ModelLoad{
				{Name: "a", Model: "toy", Policy: "PIMFlow", TotalChannels: 16, PIMChannels: 8, MaxBatch: 1},
				{Name: "b", Model: "toy", Policy: "PIMFlow", TotalChannels: 16, PIMChannels: 8, MaxBatch: 1},
			},
		},
		Machines: 1,
		Certify:  true,
	}
	f := newFleet(t, sc)
	// "wide" needs the whole machine; register it lazily.
	if err := f.Register(serve.ModelSpec{Name: "wide", Model: "toy", Policy: "PIMFlow",
		TotalChannels: 32, PIMChannels: 16, MaxBatch: 1}, 1); err != nil {
		t.Fatal(err)
	}
	reqs := []load.Request{
		{Cycle: 1_000, Model: "a"},
		{Cycle: 50_000, Model: "b"},
		{Cycle: 100_000, Model: "wide"}, // forces eviction of a AND b
	}
	rep, err := fleet.Replay(f, sc, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Served != 3 {
		t.Fatalf("served %d of 3", rep.Served)
	}
	active := map[string]bool{}
	inactive := map[string]bool{}
	for _, p := range f.Certificate().Placements {
		if p.Active {
			active[p.Model] = true
		} else {
			inactive[p.Model] = true
		}
	}
	if !active["wide"] || active["a"] || active["b"] {
		t.Fatalf("active placements: %v (want only wide)", active)
	}
	if !inactive["a"] || !inactive["b"] {
		t.Fatalf("evicted placements missing from the log: %v", inactive)
	}
	if n := f.Metrics().Counter("fleet.on_demand_loads"); n < 1 {
		t.Fatalf("on-demand load not counted: %v", n)
	}
}

// The live router path under -race: concurrent Infer calls across plain
// models, a sequence graph, and a switch graph, then a clean drain.
func TestLiveInferConcurrent(t *testing.T) {
	f, err := fleet.New(fleet.Config{Machines: 2, QueueDepth: 256})
	if err != nil {
		t.Fatal(err)
	}
	spec := func(name string) serve.ModelSpec {
		return serve.ModelSpec{Name: name, Model: "toy", Policy: "PIMFlow", TotalChannels: 16, PIMChannels: 8, MaxBatch: 4}
	}
	if err := f.Deploy(spec("toy-a"), 2); err != nil {
		t.Fatal(err)
	}
	if err := f.Deploy(spec("toy-b"), 1); err != nil {
		t.Fatal(err)
	}
	if err := f.RegisterGraph(fleet.Graph{Name: "chain", Root: "root", Nodes: []fleet.GraphNode{
		{Name: "root", Type: "sequence", Steps: []fleet.GraphStep{{Model: "toy-a"}, {Model: "toy-b"}}},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := f.RegisterGraph(fleet.Graph{Name: "pick", Root: "root", Nodes: []fleet.GraphNode{
		{Name: "root", Type: "switch", Steps: []fleet.GraphStep{
			{Model: "toy-a", Condition: "fast"}, {Model: "toy-b"},
		}},
	}}); err != nil {
		t.Fatal(err)
	}

	reqs := []fleet.Request{
		{Model: "toy-a"},
		{Model: "toy-b"},
		{Graph: "chain"},
		{Graph: "pick", Cond: "fast"},
		{Graph: "pick", Cond: "other"}, // falls to the default step
	}
	var wg sync.WaitGroup
	errc := make(chan error, 100)
	for c := 0; c < 10; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				req := reqs[(c+i)%len(reqs)]
				resp, err := f.Infer(context.Background(), req)
				if err != nil {
					errc <- err
					return
				}
				if resp.LatencyCycles <= 0 || len(resp.Hops) == 0 {
					errc <- errors.New("empty routed response")
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if got := f.Metrics().Counter("fleet.requests"); got != int64(100) {
		t.Fatalf("fleet.requests = %v, want 100", got)
	}
	if err := f.Shutdown(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// Live traffic to a replicated model reaches every replica: a hop goes
// to the replica whose machine has the fewest outstanding hops, ties
// rotating, so one client alternates between the replicas, a replica
// scaled in later takes its half at once, and a machine holding another
// model's unanswered request is passed over while it lasts. Choosing by
// in-flight leases sent every request to m0 (a live batch places and
// releases its lease inside one call, so the count read 0 on both
// machines); choosing by the earliest completion frontier sent every
// request to the replica scaled in later until its frontier caught up.
func TestLiveTrafficReachesEveryReplica(t *testing.T) {
	f, err := fleet.New(fleet.Config{Machines: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Shutdown(context.Background()) })
	spec := func(name string) serve.ModelSpec {
		return serve.ModelSpec{Name: name, Model: "toy", Policy: "PIMFlow", TotalChannels: 16, PIMChannels: 8}
	}
	names := f.MachineNames()
	infer := func(model string, n int) map[string]int64 {
		t.Helper()
		served := map[string]int64{}
		for i := 0; i < n; i++ {
			resp, err := f.Infer(context.Background(), fleet.Request{Model: model})
			if err != nil {
				t.Fatal(err)
			}
			served[resp.Hops[0].Machine]++
		}
		return served
	}

	const n = 40
	if err := f.Deploy(spec("toy"), 1); err != nil {
		t.Fatal(err)
	}
	if got := infer("toy", n); len(got) != 1 {
		t.Fatalf("one replica: served %v", got)
	}
	if err := f.Scale("toy", 2); err != nil {
		t.Fatal(err)
	}
	if got := infer("toy", n); got[names[0]] != n/2 || got[names[1]] != n/2 {
		t.Fatalf("after scaling to two replicas: served %v, want %d on each", got, n/2)
	}

	// A request held open by its batch window keeps its machine busy
	// until a second one fills the batch.
	slow := spec("slow")
	slow.MaxBatch, slow.BatchWindowMillis = 2, 60_000
	if err := f.Deploy(slow, 1); err != nil {
		t.Fatal(err)
	}
	var busyName string
	for _, d := range f.Deployments() {
		if d.Name == "slow" {
			busyName = d.Replicas[0]
		}
	}
	busyIdx := slices.Index(names, busyName)
	done := make(chan error, 1)
	go func() {
		_, err := f.Infer(context.Background(), fleet.Request{Model: "slow"})
		done <- err
	}()
	for f.Machine(busyIdx).Metrics().Gauge("serve.batch_pending") != 1 {
		time.Sleep(time.Millisecond)
	}
	if got := infer("toy", n); got[busyName] != 0 {
		t.Errorf("while %s held a request: served %v, want none there", busyName, got)
	}
	infer("slow", 1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := infer("toy", n); got[names[0]] != n/2 || got[names[1]] != n/2 {
		t.Fatalf("once %s was answered: served %v, want %d on each", busyName, got, n/2)
	}
}

// Live graph hops carry the node that issued them, in the routed
// response and in the fleet certificate (where FL-ROUTE checks the node
// belongs to the hop's graph), as replayed hops do.
func TestLiveHopsCarryNode(t *testing.T) {
	f, err := fleet.New(fleet.Config{Machines: 2, Certify: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Shutdown(context.Background()) })
	for _, name := range []string{"toy-a", "toy-b"} {
		spec := serve.ModelSpec{Name: name, Model: "toy", Policy: "PIMFlow", TotalChannels: 16, PIMChannels: 8}
		if err := f.Deploy(spec, 1); err != nil {
			t.Fatal(err)
		}
	}
	for _, g := range []fleet.Graph{
		{Name: "chain", Root: "steps", Nodes: []fleet.GraphNode{
			{Name: "steps", Type: "sequence", Steps: []fleet.GraphStep{{Model: "toy-a"}, {Model: "toy-b"}}},
		}},
		{Name: "pick", Root: "route", Nodes: []fleet.GraphNode{
			{Name: "route", Type: "switch", Steps: []fleet.GraphStep{{Model: "toy-a", Condition: "fast"}, {Model: "toy-b"}}},
		}},
	} {
		if err := f.RegisterGraph(g); err != nil {
			t.Fatal(err)
		}
	}
	node := map[string]string{"chain": "steps", "pick": "route"}
	for _, req := range []fleet.Request{{Graph: "chain"}, {Graph: "pick", Cond: "fast"}} {
		resp, err := f.Infer(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range resp.Hops {
			if h.Node != node[req.Graph] {
				t.Errorf("%s: response hop %d node %q, want %q", req.Graph, i, h.Node, node[req.Graph])
			}
		}
	}
	cert := f.Certificate()
	if len(cert.Hops) != 3 {
		t.Fatalf("certificate holds %d hops, want 3", len(cert.Hops))
	}
	for i, h := range cert.Hops {
		if h.Node != node[h.Graph] {
			t.Errorf("certificate hop %d (%s) node %q, want %q", i, h.Graph, h.Node, node[h.Graph])
		}
	}
	if diags := verify.Fleet(cert); len(diags) != 0 {
		t.Fatalf("live certificate dirty: %v", diags)
	}
}

// Live graph hops are pinned and gated like replayed ones. On two
// machines, each holding one whole-machine model, a chain's second hop
// arrives on m1 at the cycle its first hop ends on m0, its certificate
// row names that hop as its gate, and FL-ROUTE checks the gating; the
// second route arrives at the latest frontier, after the first route's
// end. A hop stamped from its own machine's frontier and recorded
// ungated would run the first route's second hop over the same cycles
// as its first, reading an output that does not exist yet.
func TestLiveSequenceHopsArePinned(t *testing.T) {
	f, err := fleet.New(fleet.Config{Machines: 2, Certify: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Shutdown(context.Background()) })
	for _, name := range []string{"toy-a", "toy-b"} {
		spec := serve.ModelSpec{Name: name, Model: "toy", Policy: "PIMFlow", TotalChannels: 32, PIMChannels: 16}
		if err := f.Deploy(spec, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.RegisterGraph(fleet.Graph{Name: "chain", Root: "steps", Nodes: []fleet.GraphNode{
		{Name: "steps", Type: "sequence", Steps: []fleet.GraphStep{{Model: "toy-a"}, {Model: "toy-b"}}},
	}}); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		resp, err := f.Infer(context.Background(), fleet.Request{Graph: "chain"})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Hops[0].Machine == resp.Hops[1].Machine {
			t.Fatalf("both hops on %s; whole-machine models must split", resp.Hops[0].Machine)
		}
		if want := resp.Hops[0].Resp.LatencyCycles + resp.Hops[1].Resp.LatencyCycles; resp.LatencyCycles != want {
			t.Fatalf("route latency %d, want the hop sum %d", resp.LatencyCycles, want)
		}
	}
	cert := f.Certificate()
	if len(cert.Hops) != 4 {
		t.Fatalf("certificate holds %d hops, want 4", len(cert.Hops))
	}
	for first := 0; first < 4; first += 2 {
		a, b := cert.Hops[first], cert.Hops[first+1]
		if b.After != first || b.Arrival < a.End {
			t.Errorf("route %d: second hop arrives at %d gated on row %d; want at or after %d, gated on row %d",
				b.Route, b.Arrival, b.After, a.End, first)
		}
	}
	if cert.Hops[2].Arrival < cert.Hops[1].End {
		t.Errorf("second route arrives at %d, before the first one ended at %d", cert.Hops[2].Arrival, cert.Hops[1].End)
	}
	if diags := verify.Fleet(cert); len(diags) != 0 {
		t.Fatalf("live certificate dirty: %v", diags)
	}
}

// Concurrent clients mixing plain requests with a Sequence around a
// nested Ensemble keep every live graph route pinned: each branch
// arrives at its predecessor's end, the last step at the slowest
// branch's end, the route's latency is the hop sum with the branches
// joined on the maximum, and the certificate verifies clean although
// the dispatcher coalesces pinned hops with frontier-stamped requests
// (toy-a's virtual window of one cycle never applies to them).
func TestLiveRoutesStayPinnedUnderConcurrency(t *testing.T) {
	f, err := fleet.New(fleet.Config{Machines: 2, QueueDepth: 256, Certify: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Shutdown(context.Background()) })
	for _, d := range []struct {
		name     string
		replicas int
	}{{"toy-a", 2}, {"toy-b", 1}} {
		spec := serve.ModelSpec{Name: d.name, Model: "toy", Policy: "PIMFlow", TotalChannels: 16, PIMChannels: 8,
			MaxBatch: 4, BatchWindowCycles: 1}
		if err := f.Deploy(spec, d.replicas); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.RegisterGraph(fleet.Graph{Name: "fan", Root: "steps", Nodes: []fleet.GraphNode{
		{Name: "steps", Type: "sequence", Steps: []fleet.GraphStep{{Model: "toy-a"}, {Node: "panel"}, {Model: "toy-b"}}},
		{Name: "panel", Type: "ensemble", Steps: []fleet.GraphStep{{Model: "toy-a"}, {Model: "toy-b"}, {Model: "toy-b"}}},
	}}); err != nil {
		t.Fatal(err)
	}
	reqs := []fleet.Request{{Model: "toy-a"}, {Model: "toy-b"}, {Graph: "fan"}}
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 24; i++ {
				resp, err := f.Infer(context.Background(), reqs[(c+i)%len(reqs)])
				if err != nil {
					t.Error(err)
					return
				}
				if resp.Graph == "" {
					continue
				}
				h := resp.Hops
				if len(h) != 5 {
					t.Errorf("route %d has %d hops, want 5", resp.Route, len(h))
					return
				}
				join := max(h[1].Resp.EndCycle, h[2].Resp.EndCycle, h[3].Resp.EndCycle)
				branch := max(h[1].Resp.LatencyCycles, h[2].Resp.LatencyCycles, h[3].Resp.LatencyCycles)
				for _, b := range h[1:4] {
					if b.Resp.ArrivalCycle != h[0].Resp.EndCycle {
						t.Errorf("route %d: branch arrives at %d, first hop ends at %d", resp.Route, b.Resp.ArrivalCycle, h[0].Resp.EndCycle)
					}
				}
				if h[4].Resp.ArrivalCycle != join ||
					resp.LatencyCycles != h[0].Resp.LatencyCycles+branch+h[4].Resp.LatencyCycles {
					t.Errorf("route %d: last hop arrives at %d after a join at %d; latency %d, hops %d + %d + %d",
						resp.Route, h[4].Resp.ArrivalCycle, join, resp.LatencyCycles,
						h[0].Resp.LatencyCycles, branch, h[4].Resp.LatencyCycles)
				}
			}
		}(c)
	}
	wg.Wait()
	if diags := verify.Fleet(f.Certificate()); len(diags) != 0 {
		t.Fatalf("live certificate dirty: %v", diags)
	}
}

// A plain request arrives at the fleet's frontier, as a graph route
// does, so the two share one timeline. With one machine far ahead after
// heavy plain traffic, two plain requests that the other machine
// batches with a chain's second hop wait only for the chain's first hop,
// not for the first machine's backlog, and the one with a virtual
// deadline is served. Stamped from their own idle machine's frontier,
// they would wait out the whole gap between the machines and the
// deadline would fail.
func TestLivePlainRequestsShareTheFleetTimeline(t *testing.T) {
	f, err := fleet.New(fleet.Config{Machines: 2, Certify: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Shutdown(context.Background()) })
	// Whole-machine models land on different machines; light holds its
	// wall window until a batch of three is full.
	for _, spec := range []serve.ModelSpec{
		{Name: "heavy", Model: "toy", Policy: "PIMFlow", TotalChannels: 32, PIMChannels: 16},
		{Name: "light", Model: "toy", Policy: "PIMFlow", TotalChannels: 32, PIMChannels: 16,
			MaxBatch: 3, BatchWindowMillis: 10_000},
	} {
		if err := f.Deploy(spec, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.RegisterGraph(fleet.Graph{Name: "chain", Root: "steps", Nodes: []fleet.GraphNode{
		{Name: "steps", Type: "sequence", Steps: []fleet.GraphStep{{Model: "heavy"}, {Model: "light"}}},
	}}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const backlog = 12
	var solo int64
	for range backlog {
		resp, err := f.Infer(ctx, fleet.Request{Model: "heavy"})
		if err != nil {
			t.Fatal(err)
		}
		solo = resp.LatencyCycles
	}
	requests := func() int64 {
		return f.Machine(0).Metrics().Counter("serve.requests") + f.Machine(1).Metrics().Counter("serve.requests")
	}

	plain := []fleet.Request{{Model: "light"}, {Model: "light", DeadlineCycles: 4 * solo}}
	resps := make([]*fleet.Response, len(plain))
	errs := make([]error, len(plain))
	var wg sync.WaitGroup
	for i, req := range plain {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resps[i], errs[i] = f.Infer(ctx, req)
		}()
	}
	// Both plain requests wait in light's open batch; the chain's second
	// hop fills it.
	for start := time.Now(); requests() < backlog+int64(len(plain)); time.Sleep(time.Millisecond) {
		if time.Since(start) > 5*time.Second {
			t.Fatal("the plain requests never reached a machine")
		}
	}
	chain, err := f.Infer(ctx, fleet.Request{Graph: "chain"})
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	first, second := chain.Hops[0], chain.Hops[1]
	if first.Machine == second.Machine {
		t.Fatalf("both chain hops on %s; whole-machine models must split", first.Machine)
	}
	if gap := first.Resp.ArrivalCycle; gap <= 4*solo {
		t.Fatalf("the chain arrives at %d, within 4 solo runs (%d) of the idle machine", gap, 4*solo)
	}
	for i, req := range plain {
		if errs[i] != nil {
			t.Errorf("plain request %+v: %v", req, errs[i])
			continue
		}
		if r := resps[i].Hops[0].Resp; r.BatchSize != 3 || r.BatchWaitCycles > first.Resp.LatencyCycles {
			t.Errorf("plain request %+v waited %d cycles in a batch of %d; want a batch of 3 and at most the chain's first hop (%d)",
				req, r.BatchWaitCycles, r.BatchSize, first.Resp.LatencyCycles)
		}
	}
	if diags := verify.Fleet(f.Certificate()); len(diags) != 0 {
		t.Fatalf("live certificate dirty: %v", diags)
	}
}

// Registration guardrails: bad graphs and bad deployments fail loudly.
func TestRegistrationValidation(t *testing.T) {
	f, err := fleet.New(fleet.Config{Machines: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Shutdown(context.Background()) })
	spec := serve.ModelSpec{Name: "toy-a", Model: "toy", Policy: "PIMFlow", TotalChannels: 16, PIMChannels: 8}
	if err := f.Deploy(spec, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Deploy(spec, 1); !errors.Is(err, fleet.ErrAlreadyDeployed) {
		t.Fatalf("duplicate deploy: %v", err)
	}
	if err := f.Register(serve.ModelSpec{Name: "x", Model: "toy"}, 3); err == nil {
		t.Fatal("3 replicas on a 2-machine fleet accepted")
	}
	if err := f.RegisterGraph(fleet.Graph{Name: "g", Root: "root", Nodes: []fleet.GraphNode{
		{Name: "root", Type: "sequence", Steps: []fleet.GraphStep{{Model: "ghost"}}},
	}}); !errors.Is(err, fleet.ErrUnknownModel) {
		t.Fatalf("graph over unknown model: %v", err)
	}
	if err := f.RegisterGraph(fleet.Graph{Name: "cyc", Root: "a", Nodes: []fleet.GraphNode{
		{Name: "a", Type: "sequence", Steps: []fleet.GraphStep{{Node: "b"}}},
		{Name: "b", Type: "sequence", Steps: []fleet.GraphStep{{Node: "a"}}},
	}}); err == nil {
		t.Fatal("cyclic graph accepted")
	}
	if err := f.RegisterGraph(fleet.Graph{Name: "ens", Root: "r", Nodes: []fleet.GraphNode{
		{Name: "x", Type: "sequence", Steps: []fleet.GraphStep{{Model: "toy-a"}}},
		{Name: "r", Type: "ensemble", Steps: []fleet.GraphStep{{Node: "x"}}},
	}}); err == nil {
		t.Fatal("ensemble over a nested node accepted (FL-NODE restricts branches to models)")
	}
}

// The builtin scenarios' gold/bronze pair (mobilenet-v2, PIMFlow, 16/8)
// is one compile input, so deploying it compiles mobilenet-v2 once:
// every replica of both names serves one graph, plan and solo report.
func TestDeployBuiltinPairCompilesOnce(t *testing.T) {
	sc, err := load.Builtin("bursty")
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace()
	names := []string{"mobilenet-gold", "mobilenet-bronze"}
	f, err := fleet.NewScenarioFleet(fleet.Scenario{Scenario: sc, Machines: 2,
		Replicas: map[string]int{names[0]: 2, names[1]: 2}}, nil, tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Shutdown(context.Background()) })
	var first *serve.LoadedModel
	for i := 0; i < f.Size(); i++ {
		for _, name := range names {
			lm, err := f.Machine(i).Registry().Get(name)
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = lm
			} else if lm.Graph != first.Graph || lm.Plan != first.Plan || lm.Solo != first.Solo {
				t.Fatalf("%s on machine %d serves another compile than %s", name, i, first.Spec.Name)
			}
		}
	}
	compiles := 0
	for _, e := range tr.Events() {
		if e.Cat == "serve.load" && e.Args["sharedWith"] == "" {
			compiles++
		}
	}
	if compiles != 1 {
		t.Fatalf("%d compiles for the gold/bronze pair, want 1", compiles)
	}
}
