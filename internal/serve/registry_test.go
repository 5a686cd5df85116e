package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"pimflow/internal/graph"
	"pimflow/internal/obs"
)

func toySpec(name string) ModelSpec {
	return ModelSpec{Name: name, Model: "toy", Policy: "PIMFlow", TotalChannels: 16, PIMChannels: 8}
}

func TestRegistryLoadListUnload(t *testing.T) {
	m := obs.NewMetrics()
	r := NewRegistry(DefaultMachine(), nil, m, nil, ServingDefaults{})
	lm, err := r.Load(toySpec("toy-a"))
	if err != nil {
		t.Fatal(err)
	}
	if lm.Solo.DurationCycles() <= 0 {
		t.Fatalf("warm solo report: %+v", lm.Solo)
	}
	if lm.Demand.GPU != 8 {
		t.Fatalf("GPU demand %d, want 8 (16 total - 8 PIM)", lm.Demand.GPU)
	}
	if lm.InitInterval < 1 || lm.InitInterval > lm.Solo.DurationCycles() {
		t.Fatalf("initiation interval %d outside (0, %d]", lm.InitInterval, lm.Solo.DurationCycles())
	}
	infos := r.List()
	if len(infos) != 1 || infos[0].Name != "toy-a" || infos[0].Policy != "PIMFlow" {
		t.Fatalf("list %+v", infos)
	}
	if _, err := r.Load(toySpec("toy-a")); !errors.Is(err, ErrAlreadyLoaded) {
		t.Fatalf("double load: %v", err)
	}
	if err := r.Unload("toy-a"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get("toy-a"); !errors.Is(err, ErrNotLoaded) {
		t.Fatalf("after unload: %v", err)
	}
	if err := r.Unload("toy-a"); !errors.Is(err, ErrNotLoaded) {
		t.Fatalf("double unload: %v", err)
	}
}

// Concurrent Loads of one name must compile once (singleflight) and all
// return the same model.
func TestRegistrySingleflightLoad(t *testing.T) {
	m := obs.NewMetrics()
	r := NewRegistry(DefaultMachine(), nil, m, nil, ServingDefaults{})
	const n = 8
	var wg sync.WaitGroup
	results := make([]*LoadedModel, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = r.Load(toySpec("toy-sf"))
		}(i)
	}
	wg.Wait()
	var lm *LoadedModel
	loaded := 0
	for i := 0; i < n; i++ {
		if errs[i] == nil {
			loaded++
			if lm == nil {
				lm = results[i]
			} else if lm != results[i] {
				t.Fatal("concurrent loads returned distinct compilations")
			}
		} else if !errors.Is(errs[i], ErrAlreadyLoaded) {
			t.Fatalf("load %d: %v", i, errs[i])
		}
	}
	if loaded == 0 {
		t.Fatal("no load succeeded")
	}
	if got := m.Counter("serve.model_loads"); got != 1 {
		t.Fatalf("%d compiles for %d concurrent loads", got, n)
	}
}

// loadSources returns each serve.load span's sharedWith argument by
// serving name: "" for a load that compiled.
func loadSources(t *testing.T, tr *obs.Trace) map[string]string {
	t.Helper()
	sources := map[string]string{}
	for _, e := range tr.Events() {
		if e.Cat == "serve.load" {
			src, ok := e.Args["sharedWith"].(string)
			if !ok {
				t.Fatalf("serve.load span of %s has no sharedWith: %v", e.Name, e.Args)
			}
			sources[e.Name] = src
		}
	}
	return sources
}

// Serving names with one compile input (zoo model, policy, channel
// slice) share one compile: the second name builds, searches, verifies
// and executes nothing, so the profile store sees no lookup, and it
// resolves only its own serving fields.
func TestRegistrySharesCompileAcrossNames(t *testing.T) {
	tr := obs.NewTrace()
	r := NewRegistry(DefaultMachine(), nil, nil, tr, ServingDefaults{})
	goldSpec := toySpec("gold")
	goldSpec.SLO, goldSpec.MaxBatch = "gold", 8
	gold, err := r.Load(goldSpec)
	if err != nil {
		t.Fatal(err)
	}
	before := r.Profiles().Stats()
	bronzeSpec := toySpec("bronze")
	bronzeSpec.SLO, bronzeSpec.BatchWindowCycles = "bronze", 200_000
	bronze, err := r.Load(bronzeSpec)
	if err != nil {
		t.Fatal(err)
	}
	if after := r.Profiles().Stats(); after != before {
		t.Errorf("the shared load touched the profile store: %+v, then %+v", before, after)
	}
	if bronze == gold || bronze.Graph != gold.Graph || bronze.Plan != gold.Plan ||
		bronze.Solo != gold.Solo || bronze.record != gold.record {
		t.Fatal("bronze does not share gold's graph, plan, solo report and metrics record")
	}
	if bronze.Demand != gold.Demand || bronze.InitInterval != gold.InitInterval || bronze.Policy != gold.Policy ||
		bronze.Opts.TotalChannels != 16 || bronze.Opts.PIMChannels != 8 {
		t.Errorf("bronze's compile fields differ from gold's: %+v vs %+v", bronze, gold)
	}
	bronzeClass, err := findSLO(DefaultSLOClasses(), "bronze")
	if err != nil {
		t.Fatal(err)
	}
	solo := gold.Solo.DurationCycles()
	if bronze.Spec != bronzeSpec || bronze.SLO != bronzeClass || bronze.SLOTarget != bronzeClass.Target(solo) ||
		bronze.Batch.MaxBatch != 1 || bronze.Batch.WindowCycles != 200_000 {
		t.Errorf("bronze's serving fields: spec %+v, SLO %+v (target %d), batch %+v", bronze.Spec, bronze.SLO, bronze.SLOTarget, bronze.Batch)
	}
	if gold.Spec != goldSpec || gold.SLO.Name != "gold" || gold.SLOTarget >= bronze.SLOTarget ||
		gold.Batch.MaxBatch != 8 || gold.Batch.WindowCycles != 0 {
		t.Errorf("gold's serving fields changed: spec %+v, SLO %+v (target %d), batch %+v", gold.Spec, gold.SLO, gold.SLOTarget, gold.Batch)
	}
	if got := loadSources(t, tr); got["gold"] != "" || got["bronze"] != "gold" {
		t.Errorf("serve.load sources %v, want gold compiled and bronze shared with gold", got)
	}
}

// Another policy or another channel slice is another compile input. The
// resolved input counts: a spec that leaves policy and slice empty shares
// the compile of PIMFlow on the whole 32/16 machine.
func TestRegistryCompilesEachInput(t *testing.T) {
	r := NewRegistry(DefaultMachine(), nil, nil, nil, ServingDefaults{})
	base, err := r.Load(toySpec("base"))
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[*graph.Graph]bool{}
	for _, spec := range []ModelSpec{
		{Name: "policy", Model: "toy", Policy: "Newton+", TotalChannels: 16, PIMChannels: 8},
		{Name: "total", Model: "toy", Policy: "PIMFlow", TotalChannels: 12, PIMChannels: 8},
		{Name: "pim", Model: "toy", Policy: "PIMFlow", TotalChannels: 16, PIMChannels: 4},
		{Name: "whole", Model: "toy", Policy: "PIMFlow", TotalChannels: 32, PIMChannels: 16},
	} {
		lm, err := r.Load(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if lm.Graph == base.Graph || lm.Solo == base.Solo || graphs[lm.Graph] {
			t.Errorf("%s (%+v) took an earlier compile", spec.Name, spec)
		}
		graphs[lm.Graph] = true
	}
	whole, err := r.Get("whole")
	if err != nil {
		t.Fatal(err)
	}
	lm, err := r.Load(ModelSpec{Name: "defaults", Model: "toy"})
	if err != nil {
		t.Fatal(err)
	}
	if lm.Graph != whole.Graph || lm.Solo != whole.Solo {
		t.Error("a spec resolving to PIMFlow 32/16 did not share that input's compile")
	}
}

// A shared compile outlives the name it came from: unloading gold leaves
// bronze serving, and a third name then shares bronze's compile.
func TestSharedCompileOutlivesItsSource(t *testing.T) {
	tr := obs.NewTrace()
	s, err := NewServer(Config{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownNow(s)
	gold, err := s.Registry().Load(toySpec("gold"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Registry().Load(toySpec("bronze")); err != nil {
		t.Fatal(err)
	}
	if err := s.Registry().Unload("gold"); err != nil {
		t.Fatal(err)
	}
	resp, err := s.Infer(context.Background(), InferRequest{Model: "bronze"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.LatencyCycles < gold.Solo.DurationCycles() {
		t.Errorf("bronze served in %d cycles, under the solo %d", resp.LatencyCycles, gold.Solo.DurationCycles())
	}
	silver, err := s.Registry().Load(toySpec("silver"))
	if err != nil {
		t.Fatal(err)
	}
	if silver.Graph != gold.Graph || silver.Solo != gold.Solo {
		t.Error("silver compiled again although bronze holds its compile input")
	}
	if got := loadSources(t, tr); got["bronze"] != "gold" || got["silver"] != "bronze" {
		t.Errorf("serve.load sources %v, want bronze from gold and silver from bronze", got)
	}
}

// Concurrent loads of distinct names with one compile input compile once:
// the first to pass its spec checks compiles, the others wait for it.
func TestRegistryConcurrentNamesCompileOnce(t *testing.T) {
	tr := obs.NewTrace()
	r := NewRegistry(DefaultMachine(), nil, nil, tr, ServingDefaults{})
	const n = 8
	var wg sync.WaitGroup
	lms := make([]*LoadedModel, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lms[i], errs[i] = r.Load(toySpec(fmt.Sprintf("toy-%d", i)))
		}(i)
	}
	wg.Wait()
	for i, lm := range lms {
		if errs[i] != nil {
			t.Fatalf("load %d: %v", i, errs[i])
		}
		if lm.Spec.Name != fmt.Sprintf("toy-%d", i) || lm.Graph != lms[0].Graph || lm.Plan != lms[0].Plan ||
			lm.Solo != lms[0].Solo || lm.record != lms[0].record {
			t.Fatalf("load %d (%s) does not share load 0's compile", i, lm.Spec.Name)
		}
	}
	compiles := 0
	for _, src := range loadSources(t, tr) {
		if src == "" {
			compiles++
		}
	}
	if compiles != 1 || len(r.List()) != n {
		t.Fatalf("%d compiles and %d models for %d loads of one input", compiles, len(r.List()), n)
	}
}

// A load that finds its name in flight with another spec must not take
// that load's model: it fails with ErrAlreadyLoaded, as it would once the
// other load finished. A load of the same spec shares the flight.
func TestRegistryInflightNameWithAnotherSpec(t *testing.T) {
	r := NewRegistry(DefaultMachine(), nil, nil, nil, ServingDefaults{})
	resnet := ModelSpec{Name: "m", Model: "resnet-50"}
	f := &loadFlight{spec: resnet, done: make(chan struct{}), lm: &LoadedModel{Spec: resnet}}
	close(f.done)
	r.mu.Lock()
	r.inflight["m"] = f
	r.mu.Unlock()
	if lm, err := r.Load(ModelSpec{Name: "m", Model: "toy"}); !errors.Is(err, ErrAlreadyLoaded) || lm != nil {
		t.Fatalf("toy load while resnet-50 is in flight under its name: %v, %v", lm, err)
	}
	if lm, err := r.Load(resnet); err != nil || lm != f.lm {
		t.Fatalf("same-spec load while in flight: %v, %v", lm, err)
	}
}

// Install must see in-flight loads: a model installed under a name whose
// load is still compiling would be overwritten when that load lands, and
// both callers would get a nil error.
func TestRegistryInstallSeesInflightLoad(t *testing.T) {
	r := NewRegistry(DefaultMachine(), nil, nil, nil, ServingDefaults{})
	resnet := ModelSpec{Name: "m", Model: "resnet-50"}
	r.mu.Lock()
	r.inflight["m"] = &loadFlight{spec: resnet, done: make(chan struct{})}
	r.mu.Unlock()
	lm := &LoadedModel{Spec: ModelSpec{Name: "m", Model: "mobilenet-v2"}}
	if err := r.Install(lm); !errors.Is(err, ErrAlreadyLoaded) {
		t.Fatalf("install while a load of the name is in flight: %v, want %v", err, ErrAlreadyLoaded)
	}
	if len(r.List()) != 0 {
		t.Fatalf("%d models after a refused install", len(r.List()))
	}
}

func TestRegistryRejectsUnknownModelAndPolicy(t *testing.T) {
	r := NewRegistry(DefaultMachine(), nil, nil, nil, ServingDefaults{})
	if _, err := r.Load(ModelSpec{Name: "x", Model: "no-such-net"}); err == nil {
		t.Fatal("unknown zoo model must fail")
	}
	if _, err := r.Load(ModelSpec{Name: "y", Model: "toy", Policy: "warp-drive"}); err == nil {
		t.Fatal("unknown policy must fail")
	}
	if len(r.List()) != 0 {
		t.Fatalf("%d models after failed loads", len(r.List()))
	}
}

// A model compiled against more channels than the machine owns can never
// be placed, so the load must fail up front.
func TestRegistryRejectsOversizedDemand(t *testing.T) {
	r := NewRegistry(Machine{GPUChannels: 4, PIMChannels: 4}, nil, nil, nil, ServingDefaults{})
	if _, err := r.Load(ModelSpec{Name: "big", Model: "toy", Policy: "PIMFlow"}); err == nil {
		t.Fatal("32-channel model on an 8-channel machine must fail to load")
	}
}

func TestParsePolicy(t *testing.T) {
	for name, want := range map[string]string{
		"baseline":   "Baseline",
		"Newton+":    "Newton+",
		"newton++":   "Newton++",
		"md":         "PIMFlow-md",
		"PIMFlow-pl": "PIMFlow-pl",
		"pimflow":    "PIMFlow",
	} {
		p, err := ParsePolicy(name)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if p.String() != want {
			t.Fatalf("%q parsed to %s, want %s", name, p, want)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("bogus policy must fail")
	}
}
