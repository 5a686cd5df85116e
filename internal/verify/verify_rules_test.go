package verify_test

import (
	"testing"

	"pimflow/internal/codegen"
	"pimflow/internal/graph"
	"pimflow/internal/pim"
	"pimflow/internal/transform"
	"pimflow/internal/verify"
)

// hasRule reports whether the diagnostics include the rule ID.
func hasRule(diags []verify.Diagnostic, id string) bool {
	for _, d := range diags {
		if d.Rule == id {
			return true
		}
	}
	return false
}

// reluGraph returns a minimal valid graph: x -> Relu -> y.
func reluGraph() *graph.Graph {
	g := graph.New("g")
	g.AddInput("x", 1, 4, 4, 2)
	g.AddNode(&graph.Node{Name: "r", Op: graph.OpRelu,
		Inputs: []string{"x"}, Outputs: []string{"y"}})
	g.MarkOutput("y")
	return g
}

// mddpConvGraph builds a conv and splits it MD-DP with the real transform,
// producing a well-formed halves/slices/concat region to tamper with.
func mddpConvGraph(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder("mddp", 1, 8, 8, 4)
	b.Conv(8, 3, 3, 1, 1, [4]int{1, 1, 1, 1}, 1)
	g := b.MustFinish()
	var conv string
	for _, n := range g.Nodes {
		if n.Op == graph.OpConv {
			conv = n.Name
		}
	}
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	if err := transform.SplitMDDP(g, conv, 0.5); err != nil {
		t.Fatal(err)
	}
	if diags := verify.Graph(g); len(diags) > 0 {
		t.Fatalf("split graph should start clean, got %v", diags)
	}
	return g
}

// pipelineNode is a shorthand for a Relu chunk with a pipeline hint.
func pipelineNode(name, in, out string, stage, part, parts int) *graph.Node {
	return &graph.Node{Name: name, Op: graph.OpRelu,
		Inputs: []string{in}, Outputs: []string{out},
		Exec: graph.ExecHint{Mode: graph.ModePipeline,
			Pipeline: graph.PipelineHint{GroupID: 0, Stage: stage, Part: part, Parts: parts}}}
}

// channelOf wraps one command stream as a single-channel trace.
func channelOf(cmds ...pim.Command) *pim.Trace {
	return &pim.Trace{Channels: []pim.ChannelTrace{{Channel: 0, Commands: cmds}}}
}

var (
	gwrite  = pim.Command{Kind: pim.KindGWrite, Bursts: 4}
	gact    = pim.Command{Kind: pim.KindGAct, NewRow: true}
	comp    = pim.Command{Kind: pim.KindComp, Cols: 4}
	readres = pim.Command{Kind: pim.KindReadRes, Bursts: 1}
)

// ruleCases maps every rule ID to an input that must trip it. The
// catalogue test walks verify.Rules() against this table, so adding a rule
// without a failing-input test breaks the build.
var ruleCases = map[string]func(t *testing.T) []verify.Diagnostic{
	verify.RuleGraphName: func(t *testing.T) []verify.Diagnostic {
		g := reluGraph()
		g.Nodes[0].Name = ""
		return verify.Graph(g)
	},
	verify.RuleGraphNameDup: func(t *testing.T) []verify.Diagnostic {
		g := reluGraph()
		g.AddNode(&graph.Node{Name: "r", Op: graph.OpRelu,
			Inputs: []string{"y"}, Outputs: []string{"z"}})
		return verify.Graph(g)
	},
	verify.RuleGraphOp: func(t *testing.T) []verify.Diagnostic {
		g := reluGraph()
		g.Nodes[0].Op = graph.OpType("Bogus")
		return verify.Graph(g)
	},
	verify.RuleGraphOutNone: func(t *testing.T) []verify.Diagnostic {
		g := reluGraph()
		g.Nodes[0].Outputs = nil
		return verify.Graph(g)
	},
	verify.RuleGraphArity: func(t *testing.T) []verify.Diagnostic {
		g := reluGraph()
		g.Nodes[0].Op = graph.OpConv // conv needs data + weights
		return verify.Graph(g)
	},
	verify.RuleGraphTensorName: func(t *testing.T) []verify.Diagnostic {
		g := reluGraph()
		g.Nodes[0].Inputs = []string{""}
		return verify.Graph(g)
	},
	verify.RuleGraphTensorUndecl: func(t *testing.T) []verify.Diagnostic {
		// The dangling-input malformation: r reads a tensor nothing
		// produces or declares.
		g := reluGraph()
		g.Nodes[0].Inputs = []string{"ghost"}
		return verify.Graph(g)
	},
	verify.RuleGraphProducerDup: func(t *testing.T) []verify.Diagnostic {
		g := reluGraph()
		g.AddNode(&graph.Node{Name: "r2", Op: graph.OpRelu,
			Inputs: []string{"x"}, Outputs: []string{"y"}})
		return verify.Graph(g)
	},
	verify.RuleGraphCycle: func(t *testing.T) []verify.Diagnostic {
		g := graph.New("cycle")
		g.AddInput("x", 1, 4, 4, 2)
		g.AddNode(&graph.Node{Name: "a", Op: graph.OpRelu,
			Inputs: []string{"b_out"}, Outputs: []string{"a_out"}})
		g.AddNode(&graph.Node{Name: "b", Op: graph.OpRelu,
			Inputs: []string{"a_out"}, Outputs: []string{"b_out"}})
		g.MarkOutput("b_out")
		return verify.Graph(g)
	},
	verify.RuleGraphInputUndecl: func(t *testing.T) []verify.Diagnostic {
		g := reluGraph()
		g.Inputs = append(g.Inputs, "phantom_in")
		return verify.Graph(g)
	},
	verify.RuleGraphOutputUndecl: func(t *testing.T) []verify.Diagnostic {
		g := reluGraph()
		g.Outputs = append(g.Outputs, "phantom_out")
		return verify.Graph(g)
	},
	verify.RuleGraphShapeDim: func(t *testing.T) []verify.Diagnostic {
		g := reluGraph()
		g.Tensors["x"].Shape = []int{1, 0, 4, 2}
		return verify.Graph(g)
	},
	verify.RuleGraphInfer: func(t *testing.T) []verify.Diagnostic {
		// The bad-concat-axis malformation: axis 9 on rank-4 inputs.
		g := graph.New("badconcat")
		g.AddInput("x", 1, 4, 4, 2)
		g.AddNode(&graph.Node{Name: "c", Op: graph.OpConcat,
			Inputs: []string{"x", "x"}, Outputs: []string{"y"}, Axis: 9})
		g.MarkOutput("y")
		return verify.Graph(g)
	},
	verify.RuleGraphShapeMismatch: func(t *testing.T) []verify.Diagnostic {
		g := reluGraph()
		g.Tensors["y"].Shape = []int{1, 4, 4, 3} // inference gives [1 4 4 2]
		return verify.Graph(g)
	},
	verify.RuleGraphMDDPPair: func(t *testing.T) []verify.Diagnostic {
		// An MD-DP half whose consumer is not the merging Concat.
		g := reluGraph()
		g.Nodes[0].Exec = graph.ExecHint{Mode: graph.ModeMDDP, Device: graph.DeviceGPU, GPURatio: 0.5}
		return verify.Graph(g)
	},
	verify.RuleGraphMDDPCover: func(t *testing.T) []verify.Diagnostic {
		// The overlapping-slice-ranges malformation: widen the PIM half's
		// slice by one source row so the halves overlap beyond the halo and
		// produce one extra output row.
		g := mddpConvGraph(t)
		var slice *graph.Node
		x := g.Index()
		for _, n := range g.Nodes {
			if n.Op == graph.OpSlice && n.Exec.Mode != graph.ModeMDDP {
				if p := x.Consumers(n.Outputs[0]); len(p) == 1 && p[0].Exec.Device == graph.DevicePIM {
					slice = n
				}
			}
		}
		if slice == nil {
			t.Fatal("no PIM-side slice in the split graph")
		}
		if slice.Start < 1 {
			t.Fatalf("slice start %d leaves no room to overlap", slice.Start)
		}
		slice.Start--
		if err := g.InferShapes(); err != nil {
			t.Fatal(err)
		}
		return verify.Graph(g)
	},
	verify.RuleGraphPipeHint: func(t *testing.T) []verify.Diagnostic {
		g := reluGraph()
		g.Nodes[0].Exec = graph.ExecHint{Mode: graph.ModePipeline,
			Pipeline: graph.PipelineHint{GroupID: 0, Stage: 0, Part: 0, Parts: 1}}
		return verify.Graph(g)
	},
	verify.RuleGraphPipeParts: func(t *testing.T) []verify.Diagnostic {
		g := graph.New("pipe")
		g.AddInput("x", 1, 4, 4, 2)
		g.AddNode(pipelineNode("s0p0", "x", "y", 0, 0, 2)) // chunk 1 of 2 missing
		g.MarkOutput("y")
		return verify.Graph(g)
	},
	verify.RuleGraphPipeOrder: func(t *testing.T) []verify.Diagnostic {
		// Part 1 of stage 0 consumes part 0 of the same stage: a chunk may
		// only consume strictly earlier stages.
		g := graph.New("pipe")
		g.AddInput("x", 1, 4, 4, 2)
		g.AddNode(pipelineNode("s0p0", "x", "m", 0, 0, 2))
		g.AddNode(pipelineNode("s0p1", "m", "y", 0, 1, 2))
		g.MarkOutput("y")
		return verify.Graph(g)
	},
	verify.RuleGraphDead: func(t *testing.T) []verify.Diagnostic {
		g := reluGraph()
		g.AddNode(&graph.Node{Name: "dead", Op: graph.OpRelu,
			Inputs: []string{"x"}, Outputs: []string{"unused"}})
		return verify.GraphWith(g, verify.Checks{RequireLive: true})
	},

	verify.RuleTraceEmpty: func(t *testing.T) []verify.Diagnostic {
		return verify.Trace(&pim.Trace{}, pim.DefaultConfig())
	},
	verify.RuleTraceChannel: func(t *testing.T) []verify.Diagnostic {
		tr := &pim.Trace{Channels: []pim.ChannelTrace{{Channel: 99}}}
		return verify.Trace(tr, pim.DefaultConfig())
	},
	verify.RuleTraceChannelDup: func(t *testing.T) []verify.Diagnostic {
		tr := &pim.Trace{Channels: []pim.ChannelTrace{{Channel: 0}, {Channel: 0}}}
		return verify.Trace(tr, pim.DefaultConfig())
	},
	verify.RuleTraceKind: func(t *testing.T) []verify.Diagnostic {
		return verify.Trace(channelOf(pim.Command{Kind: pim.Kind(99)}), pim.DefaultConfig())
	},
	verify.RuleTraceGWBufs: func(t *testing.T) []verify.Diagnostic {
		// GWRITE_4 against the single-buffer Newton baseline.
		tr := channelOf(pim.Command{Kind: pim.KindGWrite4, Bursts: 4}, gact, comp, readres)
		return verify.Trace(tr, pim.NewtonConfig())
	},
	verify.RuleTraceGWOverflow: func(t *testing.T) []verify.Diagnostic {
		// The buffer-overflow malformation: one GWRITE moving more bursts
		// than every global buffer together can hold.
		cfg := pim.DefaultConfig()
		cap := cfg.GlobalBufs * ((cfg.GlobalBufBytes + cfg.BurstBytes - 1) / cfg.BurstBytes)
		tr := channelOf(pim.Command{Kind: pim.KindGWrite, Bursts: cap + 1}, gact, comp, readres)
		return verify.Trace(tr, cfg)
	},
	verify.RuleTraceBursts: func(t *testing.T) []verify.Diagnostic {
		tr := channelOf(pim.Command{Kind: pim.KindGWrite, Bursts: 0}, gact, comp, readres)
		return verify.Trace(tr, pim.DefaultConfig())
	},
	verify.RuleTraceCompNoBuf: func(t *testing.T) []verify.Diagnostic {
		// The COMP-before-GWRITE malformation.
		tr := channelOf(gact, comp, gwrite, comp, readres)
		return verify.Trace(tr, pim.DefaultConfig())
	},
	verify.RuleTraceCompNoAct: func(t *testing.T) []verify.Diagnostic {
		tr := channelOf(gwrite, comp, readres)
		return verify.Trace(tr, pim.DefaultConfig())
	},
	verify.RuleTraceCompCols: func(t *testing.T) []verify.Diagnostic {
		cfg := pim.DefaultConfig()
		tr := channelOf(gwrite, gact,
			pim.Command{Kind: pim.KindComp, Cols: cfg.ColumnIOsPerRow + 1}, readres)
		return verify.Trace(tr, cfg)
	},
	verify.RuleTraceRRNoComp: func(t *testing.T) []verify.Diagnostic {
		tr := channelOf(gwrite, gact, readres)
		return verify.Trace(tr, pim.DefaultConfig())
	},
	verify.RuleTraceDrain: func(t *testing.T) []verify.Diagnostic {
		tr := channelOf(gwrite, gact, comp)
		return verify.Trace(tr, pim.DefaultConfig())
	},
	verify.RuleTraceCover: func(t *testing.T) []verify.Diagnostic {
		// An unloadable workload: generation fails, so nothing covers it.
		return verify.Workload(codegen.Workload{M: 0, K: 16, N: 16},
			pim.DefaultConfig(), codegen.DefaultOpts())
	},
	verify.RuleSchedDemand: func(t *testing.T) []verify.Diagnostic {
		c := goodCert()
		c.Leases[0].GPU = c.GPUChannels + 1
		return verify.Schedule(c)
	},
	verify.RuleSchedOverlap: func(t *testing.T) []verify.Diagnostic {
		c := goodCert()
		// Leases 1 and 2 already overlap in time on 8+8 GPU channels;
		// shrinking the machine makes their overlap oversubscribe it while
		// each still fits alone.
		c.GPUChannels = 12
		return verify.Schedule(c)
	},
	verify.RuleSchedFrontier: func(t *testing.T) []verify.Diagnostic {
		c := goodCert()
		c.Frontiers[0], c.Frontiers[1] = c.Frontiers[1], c.Frontiers[0]
		return verify.Schedule(c)
	},
	verify.RuleSchedLease: func(t *testing.T) []verify.Diagnostic {
		c := goodCert()
		c.Requests[0].Start, c.Requests[0].End = 90, 240 // outside lease 1's [100, 300)
		return verify.Schedule(c)
	},
	verify.RuleSchedWindow: func(t *testing.T) []verify.Diagnostic {
		c := goodCert()
		c.Policies["a"] = verify.SchedulePolicy{MaxBatch: 1}
		return verify.Schedule(c)
	},
	verify.RuleSchedPartition: func(t *testing.T) []verify.Diagnostic {
		c := goodCert()
		c.Requests[0].Execute++
		return verify.Schedule(c)
	},
	verify.RulePlanShape: func(t *testing.T) []verify.Diagnostic {
		c := goodPlanCert()
		c.Nodes[0].Modes = nil // a node the search never profiled
		return verify.PlanSearch(c)
	},
	verify.RulePlanChoice: func(t *testing.T) []verify.Diagnostic {
		c := goodPlanCert()
		// Choose a second span overlapping the chosen [0,2) one. Keep the
		// total consistent so only the disjointness rule trips.
		c.Spans = append(c.Spans, verify.PlanSpan{Name: "b+c", Start: 1, Len: 2, Cycles: 30, Chosen: true})
		return verify.PlanSearch(c)
	},
	verify.RulePlanBest: func(t *testing.T) []verify.Diagnostic {
		c := goodPlanCert()
		c.Nodes[2].Best-- // claims a time cheaper than any profiled mode
		c.Total--         // keep OP-TOTAL consistent with the bogus best
		return verify.PlanSearch(c)
	},
	verify.RulePlanTotal: func(t *testing.T) []verify.Diagnostic {
		c := goodPlanCert()
		c.Total++
		return verify.PlanSearch(c)
	},
	verify.RulePlanOptimal: func(t *testing.T) []verify.Diagnostic {
		c := goodPlanCert()
		// The plan ignores a strictly cheaper span: internally consistent
		// (spans disjoint, total re-derives), just not the optimum.
		c.Spans[0].Chosen = false
		c.Total = 10 + 12 + 30 // all singles; the span would save 7
		return verify.PlanSearch(c)
	},
}

// goodPlanCert is a clean three-node plan certificate: nodes a/b/c with
// bests 10/12/30, one chosen span over a+b costing 15 (saving 7), total
// 15 + 30 = 45. PlanSearch returns no diagnostics for it (pinned by
// TestGoodPlanCertClean in plan_test.go).
func goodPlanCert() *verify.PlanCertificate {
	return &verify.PlanCertificate{
		Model: "toy",
		Nodes: []verify.PlanNode{
			{Name: "a", Modes: []verify.PlanMode{{Name: "gpu", Cycles: 14}, {Name: "pim", Cycles: 10}}, Best: 10},
			{Name: "b", Modes: []verify.PlanMode{{Name: "gpu", Cycles: 12}}, Best: 12},
			{Name: "c", Modes: []verify.PlanMode{{Name: "gpu", Cycles: 30}, {Name: "mddp", Cycles: 31}}, Best: 30},
		},
		Spans: []verify.PlanSpan{
			{Name: "a+b", Start: 0, Len: 2, Cycles: 15, Chosen: true},
		},
		Total: 45,
	}
}

// TestEveryRuleHasFailingInput is the catalogue gate: every documented
// rule must have a constructor above whose output trips exactly that rule
// ID, and the table must not mention undocumented rules.
func TestEveryRuleHasFailingInput(t *testing.T) {
	documented := map[string]bool{}
	for _, r := range verify.Rules() {
		documented[r.ID] = true
		mk, ok := ruleCases[r.ID]
		if !ok {
			t.Errorf("rule %s has no failing-input case", r.ID)
			continue
		}
		r := r
		t.Run(r.ID, func(t *testing.T) {
			diags := mk(t)
			if !hasRule(diags, r.ID) {
				t.Fatalf("case for %s did not trip it; got %v", r.ID, diags)
			}
		})
	}
	for id := range ruleCases {
		if !documented[id] {
			t.Errorf("case for %s exists but the rule is not in Rules()", id)
		}
	}
}

// TestRuleIDsUnique guards the catalogue against copy-paste collisions.
func TestRuleIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range verify.Rules() {
		if seen[r.ID] {
			t.Errorf("duplicate rule ID %s", r.ID)
		}
		seen[r.ID] = true
		if r.Doc == "" {
			t.Errorf("rule %s has no doc line", r.ID)
		}
	}
}
