package load

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"pimflow/internal/obs"
	"pimflow/internal/serve"
)

// toyScenario is a fast two-instance workload over the toy model (solo
// ~12k cycles on a 16/8 slice): rate 300 req/Mcycle is roughly 2x the
// machine's batched capacity, so shedding decisions actually happen.
func toyScenario(seed int64, n int, process string) Scenario {
	return Scenario{
		Name:             "toy-" + process,
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
		Models: []ModelLoad{
			{Name: "toy-gold", Model: "toy", Policy: "PIMFlow", TotalChannels: 16, PIMChannels: 8,
				SLO: "gold", MaxBatch: 8, WindowCycles: 20_000},
			{Name: "toy-bronze", Model: "toy", Policy: "PIMFlow", TotalChannels: 16, PIMChannels: 8,
				SLO: "bronze", MaxBatch: 8, WindowCycles: 20_000},
		},
	}
}

func newScenarioServer(t testing.TB, sc Scenario) *serve.Server {
	t.Helper()
	adm, err := serve.ParseAdmissionPolicy(sc.Admission)
	if err != nil {
		t.Fatal(err)
	}
	// Certify: every Replay in this suite must also produce a schedule
	// certificate that passes the SR-* rules.
	srv, err := serve.NewServer(serve.Config{QueueDepth: sc.QueueDepth, Admission: adm, Certify: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	if err := LoadModels(srv, sc); err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestGenerateDeterministicAndMonotonic(t *testing.T) {
	for _, process := range []string{"poisson", "diurnal", "bursty"} {
		sc := toyScenario(7, 3000, process)
		a, err := Generate(sc)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(sc)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(TraceBytes(a), TraceBytes(b)) {
			t.Fatalf("%s: same seed produced different traces", process)
		}
		if len(a) != sc.Requests {
			t.Fatalf("%s: %d requests, want %d", process, len(a), sc.Requests)
		}
		seen := map[string]int{}
		for i, r := range a {
			if i > 0 && r.Cycle <= a[i-1].Cycle {
				t.Fatalf("%s: arrivals not strictly increasing at %d: %d after %d",
					process, i, r.Cycle, a[i-1].Cycle)
			}
			seen[r.Model]++
		}
		for _, m := range sc.Models {
			if seen[m.Name] == 0 {
				t.Fatalf("%s: model %s never drawn", process, m.Name)
			}
		}
		// Zipf rank order: the first model is the most popular.
		if seen["toy-gold"] <= seen["toy-bronze"] {
			t.Fatalf("%s: popularity inverted: %v", process, seen)
		}
		// A different seed must produce a different trace.
		c, err := Generate(toyScenario(8, 3000, process))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(TraceBytes(a), TraceBytes(c)) {
			t.Fatalf("%s: different seeds produced identical traces", process)
		}
	}
}

// The canonical trace encoding is pinned by digest: any change to the
// generator, the PRNG consumption order, or the encoding shows up here.
// (The generators draw only from math/rand, whose sequences are part of
// Go's compatibility promise, so the digest is platform-stable.)
func TestGenerateDigestPinned(t *testing.T) {
	sc := toyScenario(42, 5000, "poisson")
	reqs, err := Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(TraceBytes(reqs))
	const want = "5a14528f16f56420270db884dad0e0d3e3a3eb14de48564c6bc0cd0cb21dd778"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("trace digest %s, want %s", got, want)
	}
}

func TestBuiltinScenarios(t *testing.T) {
	for _, name := range []string{"poisson", "diurnal", "bursty"} {
		sc, err := Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Process != name || len(sc.Models) == 0 {
			t.Fatalf("builtin %s: %+v", name, sc)
		}
		if _, err := Generate(sc); err != nil {
			t.Fatalf("builtin %s does not generate: %v", name, err)
		}
	}
	if _, err := Builtin("lunar"); err == nil {
		t.Fatal("unknown builtin accepted")
	}
}

// stripWall zeroes the wall-clock fields, the only legitimate run-to-run
// variation in a deterministic replay report.
func stripWall(r *Report) Report {
	c := *r
	c.WallSeconds, c.ReqPerSec = 0, 0
	return c
}

func reportsEqual(a, b Report) bool {
	return reflect.DeepEqual(a, b)
}

// The tentpole determinism property: same seed and scenario, same
// percentiles — across fresh servers, every run.
func TestReplayDeterministic(t *testing.T) {
	sc := toyScenario(11, 3000, "bursty")
	reqs, err := Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	run := func() Report {
		srv := newScenarioServer(t, sc)
		rep, err := Replay(srv, sc, reqs)
		if err != nil {
			t.Fatal(err)
		}
		return stripWall(rep)
	}
	a, b := run(), run()
	if !reportsEqual(a, b) {
		t.Fatalf("identical replays diverged:\n%+v\n%+v", a, b)
	}
	// The workload must be real: full accounting, some load shed, sane
	// percentile ordering.
	if a.Served+a.Shed+a.Rejected+a.Violated+a.Errors != a.Requests {
		t.Fatalf("request accounting does not add up: %+v", a)
	}
	if a.Served == 0 || a.Shed == 0 {
		t.Fatalf("expected both served and shed traffic under 2x overload: %+v", a)
	}
	if a.Errors != 0 {
		t.Fatalf("%d replay errors", a.Errors)
	}
	if !(a.P50 <= a.P99 && a.P99 <= a.P999 && a.P999 <= a.MaxLatency) {
		t.Fatalf("percentiles out of order: %+v", a)
	}
	if a.MeanBatch < 1 {
		t.Fatalf("mean batch %v < 1", a.MeanBatch)
	}
	if a.SLOMiss == 0 {
		t.Fatalf("no SLO misses under 2x overload: %+v", a)
	}
}

// Regression: when a shed decision ties — open requests from two
// different models with the same arrival cycle and identical SLO/
// service estimates — the victim used to depend on map iteration order
// (openInOrder collected candidates by ranging the open-batch map and
// an unstable sort kept equal-cycle entries in collection order), so
// identical replays could shed different requests and report different
// batch compositions. The candidate order is now fixed (sorted models,
// stable sort), so repeated replays of this hand-built tie must agree.
func TestReplayShedTieDeterministic(t *testing.T) {
	sc := Scenario{
		Name:       "shed-tie",
		QueueDepth: 2,
		Admission:  "shed-oldest",
		Models: []ModelLoad{
			{Name: "tie-a", Model: "toy", Policy: "PIMFlow", TotalChannels: 16, PIMChannels: 8,
				MaxBatch: 4, WindowCycles: 1_000_000},
			{Name: "tie-b", Model: "toy", Policy: "PIMFlow", TotalChannels: 16, PIMChannels: 8,
				MaxBatch: 4, WindowCycles: 1_000_000},
		},
	}
	// Two equal-cycle arrivals on different models fill the queue; the
	// third forces a shed among perfectly tied candidates. Which model
	// loses a request changes batch sizes (a 2-batch pays an initiation
	// interval its members' solo runs would not), so any flicker in the
	// victim shows up in the report.
	reqs := []Request{
		{Model: "tie-a", Cycle: 100},
		{Model: "tie-b", Cycle: 100},
		{Model: "tie-a", Cycle: 150},
	}
	var first Report
	for i := 0; i < 12; i++ {
		srv := newScenarioServer(t, sc)
		rep, err := Replay(srv, sc, reqs)
		if err != nil {
			t.Fatal(err)
		}
		got := stripWall(rep)
		if got.Shed != 1 || got.Served != 2 {
			t.Fatalf("tie setup broken: want 2 served / 1 shed, got %+v", got)
		}
		if i == 0 {
			first = got
			continue
		}
		if !reportsEqual(first, got) {
			t.Fatalf("replay %d shed a different victim:\n%+v\n%+v", i, first, got)
		}
	}
}

// Rejection policy is also deterministic and accounts every request.
func TestReplayRejectPolicy(t *testing.T) {
	sc := toyScenario(3, 2000, "poisson")
	sc.Admission = "reject"
	reqs, err := Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	srv := newScenarioServer(t, sc)
	rep, err := Replay(srv, sc, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Served+rep.Rejected+rep.Violated+rep.Errors != rep.Requests {
		t.Fatalf("accounting: %+v", rep)
	}
	if rep.Rejected == 0 {
		t.Fatalf("no rejections under 2x overload: %+v", rep)
	}
	if rep.Shed != 0 {
		t.Fatalf("sheds under reject policy: %+v", rep)
	}
}

// The SLO isolation property: assigning one model a tighter class must
// not increase a looser class's p99 beyond batching granularity — the
// tighter class's hopeless requests are shed earlier, which relieves
// the others. The shed choice does perturb batch composition, which
// moves individual completions by fractions of one initiation interval
// (the per-member spacing inside a batch), so the assertion allows one
// initiation interval of slack. A genuine priority inversion — the
// tighter class's work queued ahead of the looser class's — would
// shift p99 by whole solo service times, an order of magnitude more.
// Checked across several seeds of an overloaded bursty workload.
func TestSLOTighterClassNeverHurtsLooser(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		var ii int64
		p99 := func(tight bool) int64 {
			sc := toyScenario(seed, 3000, "bursty")
			if tight {
				sc.Models[0].SLO = "gold"
			} else {
				sc.Models[0].SLO = "" // best-effort
			}
			reqs, err := Generate(sc)
			if err != nil {
				t.Fatal(err)
			}
			srv := newScenarioServer(t, sc)
			lm, err := srv.Registry().Get("toy-bronze")
			if err != nil {
				t.Fatal(err)
			}
			ii = lm.InitInterval
			rep, err := Replay(srv, sc, reqs)
			if err != nil {
				t.Fatal(err)
			}
			cs, ok := rep.Classes["bronze"]
			if !ok || cs.Served == 0 {
				t.Fatalf("seed %d: bronze class served nothing: %+v", seed, rep)
			}
			return cs.P99
		}
		loose, tight := p99(false), p99(true)
		if tight > loose+ii {
			t.Fatalf("seed %d: tightening the sibling class raised bronze p99 from %d to %d (> one initiation interval %d of slack)",
				seed, loose, tight, ii)
		}
	}
}

// The soak test of the concurrent serving stack, run under -race in CI:
// eight submitters push a seeded trace's models through Server.Submit/Wait
// (the admission queue and the dispatcher's continuous batcher; the live
// path stamps each arrival from the frontier), Shutdown flushes the
// batches still held open before it drains, and every request must end in
// exactly one outcome.
func TestReplayLiveSoak(t *testing.T) {
	sc := toyScenario(5, 400, "poisson")
	srv := newScenarioServer(t, sc)
	reqs, err := Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	rep := &Report{Requests: len(reqs), Classes: map[string]ClassStats{}}
	stats := NewCollector(sc, len(reqs))
	var (
		mu                  sync.Mutex
		next                atomic.Int64
		submitters, pending sync.WaitGroup
	)
	record := func(resp *serve.InferResponse, err error) {
		mu.Lock()
		defer mu.Unlock()
		rep.Record(stats, resp, err)
	}
	for c := 0; c < 8; c++ {
		submitters.Add(1)
		go func() {
			defer submitters.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				p, err := srv.Submit(context.Background(), serve.InferRequest{Model: reqs[i].Model})
				if err != nil {
					record(nil, err)
					continue
				}
				pending.Add(1)
				go func() {
					defer pending.Done()
					record(p.Wait(context.Background()))
				}()
			}
		}()
	}
	submitters.Wait()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	pending.Wait()
	stats.Finish(rep)
	if rep.Served+rep.Shed+rep.Rejected+rep.Violated+rep.Errors != rep.Requests {
		t.Fatalf("accounting: %+v", rep)
	}
	if rep.Served == 0 || rep.P50 == 0 {
		t.Fatalf("nothing served: %+v", rep)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d live replay errors: %+v", rep.Errors, rep)
	}
}

// Run is the one-call harness the bench command uses.
func TestRunEndToEnd(t *testing.T) {
	sc := toyScenario(9, 1000, "diurnal")
	rep, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Served == 0 || rep.ReqPerSec <= 0 {
		t.Fatalf("run report: %+v", rep)
	}
}

// RunOptions.Certify threads schedule-certificate recording through the
// one-call harness: the report carries the certification summary, and a
// run without the option stays uncertified (nothing recorded).
func TestRunCertify(t *testing.T) {
	sc := toyScenario(11, 600, "poisson")
	rep, err := RunWithOptions(sc, RunOptions{Certify: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Certified || rep.CertifiedLeases == 0 {
		t.Fatalf("certified replay not reported: certified=%v leases=%d", rep.Certified, rep.CertifiedLeases)
	}
	plain, err := RunWithOptions(sc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Certified || plain.CertifiedLeases != 0 {
		t.Fatalf("uncertified replay claims certification: %+v", plain)
	}
}

// The attribution contract: the attributed percentile splits sum to the
// reported end-to-end percentiles exactly (they are the stage splits of
// the requests at those ranks), the stage map covers the full pipeline,
// and the whole breakdown — request IDs included — is deterministic
// across replays of the same seeded scenario.
func TestAttributedStageBreakdown(t *testing.T) {
	sc := toyScenario(7, 2000, "poisson")
	run := func() Report {
		rep, err := RunWithOptions(sc, RunOptions{RequestLog: 256})
		if err != nil {
			t.Fatal(err)
		}
		return stripWall(rep)
	}
	a := run()
	if a.Served == 0 || a.Attributed == nil {
		t.Fatalf("no attribution: %+v", a)
	}
	for _, tc := range []struct {
		name string
		at   AttributedRequest
		e2e  int64
	}{
		{"p50", a.Attributed.P50, a.P50},
		{"p99", a.Attributed.P99, a.P99},
		{"p999", a.Attributed.P999, a.P999},
	} {
		if tc.at.LatencyCycles != tc.e2e {
			t.Errorf("%s: attributed request latency %d != percentile %d", tc.name, tc.at.LatencyCycles, tc.e2e)
		}
		if got := tc.at.Stages.Total(); got != tc.e2e {
			t.Errorf("%s: stages sum to %d, percentile %d", tc.name, got, tc.e2e)
		}
		if tc.at.RequestID == "" || tc.at.Model == "" {
			t.Errorf("%s: attribution missing identity: %+v", tc.name, tc.at)
		}
	}
	for _, st := range []string{"queue", "batch_window", "lease_wait", "execute"} {
		if _, ok := a.Stages[st]; !ok {
			t.Errorf("stage map missing %q: %v", st, a.Stages)
		}
	}
	if a.Stages["execute"].P50 == 0 {
		t.Errorf("execute stage p50 is zero: %+v", a.Stages["execute"])
	}
	if a.Stages["queue"].Max != 0 {
		t.Errorf("virtual queue stage nonzero (admission is instantaneous in simulated time): %+v", a.Stages["queue"])
	}
	if b := run(); !reportsEqual(a, b) {
		t.Fatalf("attributed breakdowns diverged across replays:\n%+v\n%+v", a.Attributed, b.Attributed)
	}
}

// A replay with a shared trace and request logging must emit request
// lanes spanning arrival to completion on the requests process.
func TestReplayEmitsRequestLanes(t *testing.T) {
	sc := toyScenario(3, 300, "poisson")
	tr := obs.NewTrace()
	rep, err := RunWithOptions(sc, RunOptions{Trace: tr, RequestLog: 64})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Served == 0 {
		t.Fatalf("nothing served: %+v", rep)
	}
	var lanes, stages int
	for _, e := range tr.Events() {
		if e.PID != obs.PIDRequests || e.Phase != "X" {
			continue
		}
		switch e.Cat {
		case "serve.request":
			lanes++
		case "serve.request.stage":
			stages++
		}
	}
	if lanes != rep.Served {
		t.Errorf("request lanes %d, served %d", lanes, rep.Served)
	}
	if stages == 0 {
		t.Error("no stage slices on request lanes")
	}
}

// TraceBytes is the canonical text encoding of a trace ("cycle model"
// per line), which the determinism tests digest.
func TraceBytes(reqs []Request) []byte {
	var b bytes.Buffer
	for _, r := range reqs {
		fmt.Fprintf(&b, "%d %s\n", r.Cycle, r.Model)
	}
	return b.Bytes()
}
