package codegen_test

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
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

// refChecker is a pim.Sink that checks a stream against the per-command
// reference emitters channel by channel: each block must start where the
// reference starts a unit and hold that unit's commands.
type refChecker struct {
	ref      *codegen.ReferenceEmitter
	channels []int
	cmds     []pim.Command // the open channel's reference commands
	starts   []int         // where its units start in cmds
	at, unit int           // commands and blocks checked in the open channel
	err      error
}

func (c *refChecker) BeginChannel(ch int) {
	c.endChannel()
	c.channels = append(c.channels, ch)
	c.cmds, c.starts = c.ref.Channel(ch, c.cmds[:0], c.starts[:0])
	c.at, c.unit = 0, 0
}

func (c *refChecker) Emit(cmds []pim.Command) {
	switch {
	case c.err != nil:
	case c.unit >= len(c.starts) || c.starts[c.unit] != c.at:
		c.err = fmt.Errorf("channel %d: block %d starts at command %d, off a unit start", c.channels[len(c.channels)-1], c.unit, c.at)
	case c.unit+1 < len(c.starts) && c.at+len(cmds) != c.starts[c.unit+1],
		c.unit+1 == len(c.starts) && c.at+len(cmds) != len(c.cmds):
		c.err = fmt.Errorf("channel %d: block %d holds %d commands, its unit another count", c.channels[len(c.channels)-1], c.unit, len(cmds))
	case !slices.Equal(cmds, c.cmds[c.at:c.at+len(cmds)]):
		c.err = fmt.Errorf("channel %d: block %d differs from its unit's commands", c.channels[len(c.channels)-1], c.unit)
	}
	c.at += len(cmds)
	c.unit++
}

// endChannel requires the open channel to have received every unit.
func (c *refChecker) endChannel() {
	if c.err == nil && len(c.channels) > 0 && c.unit != len(c.starts) {
		c.err = fmt.Errorf("channel %d: %d blocks, %d units", c.channels[len(c.channels)-1], c.unit, len(c.starts))
	}
}

// paperWorkloads returns the distinct workloads of every PIM-candidate
// layer of the five paper models.
func paperWorkloads(t *testing.T) []codegen.Workload {
	t.Helper()
	var ws []codegen.Workload
	seen := map[codegen.Workload]bool{}
	for _, name := range models.EvaluatedCNNs() {
		g, err := models.Build(name, models.Options{Light: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range g.Nodes {
			if !g.IsPIMCandidate(n) {
				continue
			}
			w, err := codegen.NodeWorkload(g, n)
			if err != nil {
				t.Fatalf("%s: %v", n.Name, err)
			}
			w.Groups = 0
			if !seen[w] {
				seen[w] = true
				ws = append(ws, w)
			}
		}
	}
	return ws
}

// TestStreamMatchesReferenceEmitters holds Stream's unit blocks to the
// per-command emitters they replaced: the same channels, one Emit per
// unit, and each block the commands the reference emits for that unit.
// It covers the sweep and the paper models' workloads under both
// configurations and every granularity and GWRITE option.
func TestStreamMatchesReferenceEmitters(t *testing.T) {
	workloads := append(paperWorkloads(t), sweepWorkloads...)
	// Chunks shorter than the segment count, whose GWRITE part fills
	// fewer slots than a plan reserves: a ragged last K-chunk of one
	// element (GranComp splits K at 512) and a whole K of two.
	workloads = append(workloads,
		codegen.Workload{M: 2, K: 1025, N: 4, Segments: 3},
		codegen.Workload{M: 5, K: 2, N: 20, Segments: 3})
	for cfgName, cfg := range sweepConfigs {
		for optName, o := range sweepOpts {
			for _, w := range workloads {
				ref, err := codegen.NewReferenceEmitter(w, cfg, o)
				if err != nil {
					t.Fatal(err)
				}
				c := refChecker{ref: ref}
				if err := codegen.Stream(w, cfg, o, &c); err != nil {
					t.Fatal(err)
				}
				c.endChannel()
				if c.err == nil && !slices.Equal(c.channels, ref.Channels()) {
					c.err = fmt.Errorf("stream opens channels %v, reference %v", c.channels, ref.Channels())
				}
				if c.err != nil {
					t.Fatalf("%s/%s/%+v: %v", cfgName, optName, w, c.err)
				}
			}
		}
	}
}

// TestTimeWorkloadAllocs pins the timing path's allocations: the three
// slices of the returned Stats, and three more for a grouped workload's
// scaled copy. The block buffer lives on TimeWorkload's stack and the
// plan and feeder do not escape, so a probe allocates nothing per call
// beyond its result.
func TestTimeWorkloadAllocs(t *testing.T) {
	for cfgName, cfg := range sweepConfigs {
		for optName, o := range sweepOpts {
			for _, tc := range []struct {
				w    codegen.Workload
				want float64
			}{
				{codegen.Workload{M: 784, K: 1152, N: 128, Segments: 3}, 3},
				{codegen.Workload{M: 49, K: 72, N: 24, Segments: 3, Groups: 4}, 6},
			} {
				allocs := testing.AllocsPerRun(20, func() {
					if _, err := codegen.TimeWorkload(tc.w, cfg, o); err != nil {
						t.Fatal(err)
					}
				})
				if allocs != tc.want {
					t.Errorf("%s/%s/%+v: %.0f allocations per call, want %.0f", cfgName, optName, tc.w, allocs, tc.want)
				}
			}
		}
	}
}

// countSink counts the commands it is handed.
type countSink struct{ n int }

func (s *countSink) BeginChannel(int)        {}
func (s *countSink) Emit(cmds []pim.Command) { s.n += len(cmds) }

// TestStreamAllocsOneBuffer pins Stream's allocations to its block
// buffer, which escapes through the sink: the plan stays on its stack,
// however many commands it emits. A consumer of a concrete type that
// drains Units over a stack buffer allocates nothing and takes the same
// commands.
func TestStreamAllocsOneBuffer(t *testing.T) {
	cfg := pim.DefaultConfig()
	for _, w := range sweepWorkloads {
		for optName, o := range sweepOpts {
			var sink countSink
			allocs := testing.AllocsPerRun(5, func() {
				sink.n = 0
				if err := codegen.Stream(w, cfg, o, &sink); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 1 {
				t.Errorf("%s/%+v: %.0f allocations per Stream, want 1", optName, w, allocs)
			}
			n := 0
			allocs = testing.AllocsPerRun(5, func() {
				var stack [codegen.BlockStack]pim.Command
				u, err := codegen.NewUnits(w, cfg, o, stack[:0])
				if err != nil {
					t.Fatal(err)
				}
				n = 0
				for _, ok := u.NextChannel(); ok; _, ok = u.NextChannel() {
					for cmds, ok := u.Next(); ok; cmds, ok = u.Next() {
						n += len(cmds)
					}
				}
			})
			if allocs != 0 || n != sink.n {
				t.Errorf("%s/%+v: Units gave %d commands in %.0f allocations, Stream %d in one", optName, w, n, allocs, sink.n)
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
