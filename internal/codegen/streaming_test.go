package codegen_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"pimflow/internal/codegen"
	"pimflow/internal/graph"
	"pimflow/internal/models"
	"pimflow/internal/pim"
	"pimflow/internal/verify"
)

// sweepConfigs and sweepOpts are TestGeneratedTracesPassLinter's tables,
// and sweepWorkloads extends its shapes with three large ones (132
// combinations), so the equivalence sweep covers the protocol lint's
// ground.
var sweepWorkloads = []codegen.Workload{
	{M: 1, K: 16, N: 16, Segments: 1},
	{M: 4, K: 64, N: 32, Segments: 1},
	{M: 16, K: 2048, N: 64, Segments: 1},   // K spans several buffer chunks
	{M: 196, K: 576, N: 128, Segments: 1},  // conv-like lowering
	{M: 3, K: 100, N: 7, Segments: 1},      // ragged group tails
	{M: 64, K: 64, N: 1024, Segments: 1},   // many output groups
	{M: 2, K: 4096, N: 4, Segments: 1},     // few units, GranComp row-chunk split
	{M: 8, K: 512, N: 256, Segments: 3},    // segmented (strided-GWRITE) input
	{M: 784, K: 1152, N: 128, Segments: 3}, // large-M conv: block-level fast-forward
	{M: 1, K: 25088, N: 512, Segments: 1},  // FC: single vector, row-level fast-forward
	{M: 3137, K: 32, N: 96, Segments: 1},   // huge ragged M (partial last vector group)
}

var sweepConfigs = map[string]pim.Config{
	"default": pim.DefaultConfig(),
	"newton":  pim.NewtonConfig(),
}

// "comp", "nostrided" (G_ACT) and "nostrided-readres" run every
// granularity with strided GWRITE off: one GWRITE per input segment.
var sweepOpts = map[string]codegen.Opts{
	"default":           codegen.DefaultOpts(),
	"comp":              {Granularity: codegen.GranComp, StridedGWrite: false},
	"gact":              {Granularity: codegen.GranGAct, StridedGWrite: true},
	"readres":           {Granularity: codegen.GranReadRes, StridedGWrite: true},
	"nostrided":         {Granularity: codegen.GranGAct, StridedGWrite: false},
	"nostrided-readres": {Granularity: codegen.GranReadRes, StridedGWrite: false},
}

// materializedStats is the reference path: build the full trace, then
// walk it with the batch simulator.
func materializedStats(t *testing.T, w codegen.Workload, cfg pim.Config, opts codegen.Opts) pim.Stats {
	t.Helper()
	groups := int64(w.GroupCount())
	w.Groups = 0
	tr, err := codegen.Generate(w, cfg, opts)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	st, err := pim.Simulate(cfg, tr)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	return st.Scale(groups)
}

// TestStreamEquivalenceSweep locks in the tentpole invariant: the
// streaming TimeWorkload returns Stats identical — every field, every
// per-channel slice — to generating the trace and simulating it, across
// the full codegen sweep.
func TestStreamEquivalenceSweep(t *testing.T) {
	for cfgName, cfg := range sweepConfigs {
		for optName, o := range sweepOpts {
			for _, w := range sweepWorkloads {
				name := fmt.Sprintf("%s/%s/M%dK%dN%dS%d", cfgName, optName, w.M, w.K, w.N, w.Segments)
				t.Run(name, func(t *testing.T) {
					want := materializedStats(t, w, cfg, o)
					got, err := codegen.TimeWorkload(w, cfg, o)
					if err != nil {
						t.Fatalf("TimeWorkload: %v", err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("streamed stats diverge from materialized:\n got %+v\nwant %+v", got, want)
					}
				})
			}
		}
	}
}

// TestStreamEquivalenceGrouped covers the grouped-GEMM scaling path.
func TestStreamEquivalenceGrouped(t *testing.T) {
	cfg := pim.DefaultConfig()
	w := codegen.Workload{M: 49, K: 72, N: 24, Segments: 3, Groups: 4}
	want := materializedStats(t, w, cfg, codegen.DefaultOpts())
	got, err := codegen.TimeWorkload(w, cfg, codegen.DefaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("grouped streamed stats diverge:\n got %+v\nwant %+v", got, want)
	}
	if got.Counts.ColIOs != want.Counts.ColIOs || got.Cycles%4 != 0 {
		t.Fatalf("grouped scaling wrong: %+v", got.Counts)
	}
}

// TestStreamEquivalencePaperModels runs the sweep over every
// PIM-candidate layer of the five paper models: each layer's streamed
// timing must equal its materialized timing.
func TestStreamEquivalencePaperModels(t *testing.T) {
	cfg := pim.DefaultConfig()
	opts := codegen.DefaultOpts()
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
				want := materializedStats(t, w, cfg, opts)
				got, err := codegen.TimeWorkload(w, cfg, opts)
				if err != nil {
					t.Fatalf("%s: %v", n.Name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: streamed stats diverge:\n got %+v\nwant %+v", n.Name, got, want)
				}
				layers++
			}
			if layers == 0 {
				t.Fatal("model has no PIM-candidate layers")
			}
		})
	}
}

// TestStreamMaterializesIdenticalTrace is the guard-rail regression for
// the consumers that still need a real trace (dump / Chrome-trace
// export): driving Stream into a TraceSink must yield a byte-identical
// dump and identical lint diagnostics to Generate, so the event-recording
// path keeps seeing the exact command stream the timing engine consumed.
func TestStreamMaterializesIdenticalTrace(t *testing.T) {
	for cfgName, cfg := range sweepConfigs {
		for optName, o := range sweepOpts {
			for _, w := range sweepWorkloads {
				name := fmt.Sprintf("%s/%s/M%dK%dN%dS%d", cfgName, optName, w.M, w.K, w.N, w.Segments)
				t.Run(name, func(t *testing.T) {
					gen, err := codegen.Generate(w, cfg, o)
					if err != nil {
						t.Fatal(err)
					}
					var sink pim.TraceSink
					if err := codegen.Stream(w, cfg, o, &sink); err != nil {
						t.Fatal(err)
					}
					var dumpGen, dumpStream bytes.Buffer
					if err := gen.Dump(&dumpGen); err != nil {
						t.Fatal(err)
					}
					if err := sink.Trace.Dump(&dumpStream); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(dumpGen.Bytes(), dumpStream.Bytes()) {
						t.Fatal("streamed trace dump differs from generated trace dump")
					}
					dGen := verify.Trace(gen, cfg)
					dStream := verify.Trace(&sink.Trace, cfg)
					if !reflect.DeepEqual(dGen, dStream) {
						t.Fatalf("lint diagnostics diverge:\n generate: %v\n stream:   %v", dGen, dStream)
					}
					if len(dGen) != 0 {
						t.Fatalf("generated trace fails lint: %v", verify.AsError(dGen))
					}
				})
			}
		}
	}
}

// TestTimeNodeStreams keeps the node-level wrapper on the streaming path.
func TestTimeNodeStreams(t *testing.T) {
	b := graph.NewBuilder("tn", 1, 14, 14, 576)
	b.Light = true
	g, err := b.PointwiseConv(160).Finish()
	if err != nil {
		t.Fatal(err)
	}
	n := g.Nodes[0]
	st, err := codegen.TimeNode(g, n, pim.DefaultConfig(), codegen.DefaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	w, err := codegen.NodeWorkload(g, n)
	if err != nil {
		t.Fatal(err)
	}
	want := materializedStats(t, w, pim.DefaultConfig(), codegen.DefaultOpts())
	if !reflect.DeepEqual(st, want) {
		t.Fatalf("TimeNode diverges from materialized timing:\n got %+v\nwant %+v", st, want)
	}
}
