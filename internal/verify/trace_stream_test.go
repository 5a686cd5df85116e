package verify_test

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"pimflow/internal/codegen"
	"pimflow/internal/graph"
	"pimflow/internal/models"
	"pimflow/internal/pim"
	"pimflow/internal/search"
	"pimflow/internal/verify"
)

// The streaming linter's differential tests: Workload (codegen.Stream
// into the linter) and Trace (a stored trace replayed into it) must
// return exactly the diagnostics of the stored-trace reference, clean or
// not, down to order, indices and message text.

func TestWorkloadMatchesReferencePaperModels(t *testing.T) {
	rc := search.DefaultOptions(search.PolicyPIMFlow).RuntimeConfig()
	for _, name := range models.EvaluatedCNNs() {
		t.Run(name, func(t *testing.T) {
			g, err := models.Build(name, models.Options{Light: true})
			if err != nil {
				t.Fatal(err)
			}
			layers := 0
			for _, n := range g.Nodes {
				if !g.IsPIMCandidate(n) {
					continue
				}
				w, err := codegen.NodeWorkload(g, n)
				if err != nil {
					t.Fatalf("%s: %v", n.Name, err)
				}
				got := verify.Workload(w, rc.PIM, rc.Codegen)
				want := verify.ReferenceWorkload(w, rc.PIM, rc.Codegen)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: streaming %v, reference %v", n.Name, got, want)
				}
				layers++
			}
			if layers == 0 {
				t.Fatal("model has no PIM-candidate layers")
			}
		})
	}
}

func TestWorkloadMatchesReferenceGrid(t *testing.T) {
	workloads := []codegen.Workload{
		{M: 1, K: 16, N: 16, Segments: 1},
		{M: 4, K: 64, N: 32, Segments: 1},
		{M: 16, K: 2048, N: 64, Segments: 1},
		{M: 196, K: 576, N: 128, Segments: 1},
		{M: 3, K: 100, N: 7, Segments: 1},
		{M: 64, K: 64, N: 1024, Segments: 1},
		{M: 2, K: 4096, N: 4, Segments: 1},
		{M: 8, K: 512, N: 256, Segments: 3},
		{M: 6, K: 96, N: 24, Segments: 3, Groups: 4}, // grouped: one group is verified
		{M: 0, K: 16, N: 16},                         // generation fails: TR-COVER
	}
	configs := map[string]pim.Config{
		"default": pim.DefaultConfig(),
		"newton":  pim.NewtonConfig(),
	}
	opts := map[string]codegen.Opts{
		"default":           codegen.DefaultOpts(),
		"comp":              {Granularity: codegen.GranComp, StridedGWrite: false},
		"gact":              {Granularity: codegen.GranGAct, StridedGWrite: true},
		"readres":           {Granularity: codegen.GranReadRes, StridedGWrite: true},
		"nostrided":         {Granularity: codegen.GranGAct, StridedGWrite: false},
		"nostrided-readres": {Granularity: codegen.GranReadRes, StridedGWrite: false},
	}
	for cfgName, cfg := range configs {
		for optName, o := range opts {
			for _, w := range workloads {
				got := verify.Workload(w, cfg, o)
				want := verify.ReferenceWorkload(w, cfg, o)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s/%+v: streaming %v, reference %v", cfgName, optName, w, got, want)
				}
			}
		}
	}
}

// forgedTrace builds a random, mostly malformed trace: unknown kinds,
// zero or negative bursts, overflowing GWRITEs, out-of-range COMP
// columns, negative, out-of-range and duplicate channel ids, and
// channels that end with undrained COMPs.
func forgedTrace(rng *rand.Rand, cfg pim.Config) *pim.Trace {
	switch rng.Intn(20) {
	case 0:
		return nil
	case 1:
		return &pim.Trace{}
	}
	capBursts := cfg.GlobalBufs * ((cfg.GlobalBufBytes + cfg.BurstBytes - 1) / cfg.BurstBytes)
	tr := &pim.Trace{}
	for c := 1 + rng.Intn(6); c > 0; c-- {
		ct := pim.ChannelTrace{Channel: rng.Intn(cfg.Channels+4) - 2}
		for k := rng.Intn(40); k > 0; k-- {
			cmd := pim.Command{Kind: pim.Kind(rng.Intn(9)), NewRow: rng.Intn(2) == 0}
			switch rng.Intn(4) {
			case 0:
				cmd.Bursts = rng.Intn(3) - 1
			case 1:
				cmd.Bursts = capBursts + rng.Intn(3) - 1
			default:
				cmd.Bursts = 1 + rng.Intn(capBursts)
			}
			cmd.Cols = rng.Intn(cfg.ColumnIOsPerRow+3) - 1
			ct.Commands = append(ct.Commands, cmd)
		}
		tr.Channels = append(tr.Channels, ct)
	}
	return tr
}

func TestTraceMatchesReferenceForged(t *testing.T) {
	twoBufs := pim.DefaultConfig()
	twoBufs.GlobalBufs = 2
	configs := []pim.Config{pim.DefaultConfig(), pim.NewtonConfig(), twoBufs}
	rng := rand.New(rand.NewSource(14))
	flagged := map[string]bool{}
	for trial := 0; trial < 5000; trial++ {
		cfg := configs[trial%len(configs)]
		tr := forgedTrace(rng, cfg)
		got := verify.Trace(tr, cfg)
		want := verify.ReferenceTrace(tr, cfg)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: streaming %v, reference %v (trace %+v)", trial, got, want, tr)
		}
		for _, d := range got {
			flagged[d.Rule] = true
		}
	}
	// The forged traces must exercise every protocol rule; TR-COVER is
	// Workload's alone.
	for _, r := range verify.Rules() {
		if strings.HasPrefix(r.ID, "TR-") && r.ID != verify.RuleTraceCover && !flagged[r.ID] {
			t.Errorf("no forged trace tripped %s", r.ID)
		}
	}
}

// TestWorkloadAllocsFlat pins the point of streaming: linting a workload
// allocates the same handful of objects however many commands it
// generates, because no trace is stored. The blocks and the linter stay
// on the stack, so the handful is the linter's channel set: 1.
func TestWorkloadAllocsFlat(t *testing.T) {
	cfg, opts := pim.DefaultConfig(), codegen.DefaultOpts()
	workloads := []codegen.Workload{
		{M: 1, K: 16, N: 16, Segments: 1},
		{M: 196, K: 576, N: 128, Segments: 1},
		{M: 784, K: 1152, N: 128, Segments: 3},
	}
	var base float64
	lastCmds := 0
	for i, w := range workloads {
		tr, err := codegen.Generate(w, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		cmds := tr.TotalCommands()
		if cmds <= lastCmds {
			t.Fatalf("workload %+v has %d commands, want more than %d", w, cmds, lastCmds)
		}
		lastCmds = cmds
		if diags := verify.Workload(w, cfg, opts); len(diags) != 0 {
			t.Fatalf("workload %+v: %v", w, verify.AsError(diags))
		}
		allocs := testing.AllocsPerRun(5, func() { verify.Workload(w, cfg, opts) })
		t.Logf("%d commands: %.0f allocs", cmds, allocs)
		if allocs > 1 {
			t.Errorf("%+v: %.0f allocs, want at most 1", w, allocs)
		}
		if i == 0 {
			base = allocs
		} else if allocs > base {
			t.Errorf("%+v: %.0f allocs at %d commands, %.0f at the smallest workload",
				w, allocs, cmds, base)
		}
	}
}

// TestLinterConsumesEveryCommand sums the commands the linter consumes
// while it checks the distinct workloads of each of the five compiled
// CNNs, as Compiled does. Every command those workloads generate must
// reach it: 1 001 286, the count the per-command emitters generated for
// them.
func TestLinterConsumesEveryCommand(t *testing.T) {
	opts := search.DefaultOptions(search.PolicyPIMFlow)
	rc := opts.RuntimeConfig()
	workloads, linted, generated := 0, 0, 0
	for _, name := range models.EvaluatedCNNs() {
		seen := map[codegen.Workload]bool{}
		g, err := models.Build(name, models.Options{Light: true})
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := search.Compile(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range out.Nodes {
			if n.Exec.Device != graph.DevicePIM {
				continue
			}
			w, err := codegen.NodeWorkload(out, n)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, n.Name, err)
			}
			if seen[w] {
				continue
			}
			seen[w] = true
			workloads++
			cmds, diags, err := verify.LintedCommands(w, rc.PIM, rc.Codegen)
			if err != nil || len(diags) != 0 {
				t.Fatalf("%s/%s: %v %v", name, n.Name, err, diags)
			}
			tr, err := codegen.Generate(w, rc.PIM, rc.Codegen)
			if err != nil {
				t.Fatal(err)
			}
			linted += cmds
			generated += tr.TotalCommands()
		}
	}
	t.Logf("%d workloads, %d commands linted", workloads, linted)
	if linted != generated || generated != 1_001_286 {
		t.Fatalf("linter consumed %d commands, the workloads generate %d, want 1001286", linted, generated)
	}
}
