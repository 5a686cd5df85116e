// Command pimflow mirrors the paper artifact's top-level script (§A.5):
//
//	pimflow -m=profile -t=split    -n=<net>   profile MD-DP candidates
//	pimflow -m=profile -t=pipeline -n=<net>   profile pipelining candidates
//	pimflow -m=solve   -n=<net>               compute the optimal plan
//	pimflow -m=run     -n=<net> [--gpu_only]  execute the transformed model
//	pimflow -m=stats   -n=<net>               print the model graph summary
//	pimflow -m=verify  -n=<net|all>           statically verify the model
//
// The verify mode runs the static verification layer without simulating:
// the graph-IR invariant checker on the model before compilation and
// after every transformation pass, then the PIM command-stream linter on
// every offloaded layer's generated trace. -n=all sweeps every built-in
// model; a non-empty diagnostic list exits nonzero. The -verify flag
// enables the same checks as a debug gate inside the other modes.
//
// The <net> option accepts efficientnet-v1-b0, mobilenet-v2, mnasnet-1.0,
// resnet-50, vgg-16, bert-base, or toy. Profiling results and the solved
// plan are stored as JSON metadata under -workdir (default .pimflow) and
// reused by later steps, like the artifact's metadata log files.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"pimflow"
)

func main() {
	var (
		mode     = flag.String("m", "", "mode: profile | solve | run | stats")
		kind     = flag.String("t", "split", "profile kind: split | pipeline (profile mode)")
		net      = flag.String("n", "toy", "model name")
		gpuOnly  = flag.Bool("gpu_only", false, "run the GPU-only baseline (run mode)")
		policy   = flag.String("policy", "PIMFlow", "offloading mechanism: Baseline | Newton+ | Newton++ | PIMFlow-md | PIMFlow-pl | PIMFlow")
		workdir  = flag.String("workdir", ".pimflow", "metadata directory")
		pimCh    = flag.Int("pim_channels", 16, "PIM-enabled channels in the 32-channel memory")
		timeline = flag.String("timeline", "", "write the schedule as a Chrome trace JSON to this file (run mode)")
		ratio    = flag.Float64("ratio_step", 0.1, "MD-DP split-ratio search interval (paper: 0.1; footnote explores 0.02)")
		stages   = flag.Int("stages", 2, "pipeline stage count (paper: 2)")
		refine   = flag.Bool("refine", false, "enable fine-grained ratio refinement (future-work auto-tuning)")
		verify   = flag.Bool("verify", false, "run the static verifier after every transform pass and on every generated PIM trace (debug gate)")
		gantt    = flag.Bool("gantt", false, "print an ASCII device timeline after running (run mode)")
		profFile = flag.String("profile-cache", "", "JSON profile-cache file: loaded before the run, saved after (the metadata log)")
		traceOut = flag.String("trace", "", "write a Chrome trace-event JSON of the compile+execute pipeline to this file (open in Perfetto or chrome://tracing)")
		metrics  = flag.String("metrics", "", "write compiler/runtime metrics (counters, gauges, histograms) as JSON to this file")
		verbose  = flag.Bool("v", false, "info-level structured logs on stderr")
		vverbose = flag.Bool("vv", false, "debug-level structured logs on stderr")
	)
	flag.Parse()
	switch {
	case *vverbose:
		pimflow.SetVerbosity(2)
	case *verbose:
		pimflow.SetVerbosity(1)
	}
	custom := customization{ratioStep: *ratio, stages: *stages, refine: *refine, gantt: *gantt, verify: *verify}
	if *traceOut != "" {
		custom.trace = pimflow.NewTrace()
	}
	if *metrics != "" {
		custom.metrics = pimflow.NewMetrics()
	}
	if *profFile != "" {
		custom.profiles = pimflow.NewProfileStore()
		n, err := custom.profiles.Load(*profFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pimflow:", err)
			os.Exit(1)
		}
		if n > 0 {
			fmt.Printf("profile cache: loaded %d entries from %s\n", n, *profFile)
		}
	}
	if err := runWith(*mode, *kind, *net, *policy, *workdir, *gpuOnly, *pimCh, *timeline, custom); err != nil {
		fmt.Fprintln(os.Stderr, "pimflow:", err)
		os.Exit(1)
	}
	if custom.profiles != nil {
		if err := custom.profiles.Save(*profFile); err != nil {
			fmt.Fprintln(os.Stderr, "pimflow:", err)
			os.Exit(1)
		}
		fmt.Printf("profile cache: %s; saved to %s\n", custom.profiles.Stats(), *profFile)
	}
	if custom.trace != nil {
		if err := writeJSONFile(*traceOut, custom.trace.WriteJSON); err != nil {
			fmt.Fprintln(os.Stderr, "pimflow:", err)
			os.Exit(1)
		}
		fmt.Printf("trace written to %s (%d events; open in Perfetto)\n", *traceOut, custom.trace.Len())
	}
	if custom.metrics != nil {
		if err := writeJSONFile(*metrics, custom.metrics.WriteJSON); err != nil {
			fmt.Fprintln(os.Stderr, "pimflow:", err)
			os.Exit(1)
		}
		fmt.Printf("metrics written to %s\n", *metrics)
	}
}

// writeJSONFile streams an exporter into a freshly created file.
func writeJSONFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func parsePolicy(s string) (pimflow.Policy, error) {
	for _, p := range pimflow.Policies() {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown policy %q", s)
}

// customization carries the §A.7 experiment-customization knobs.
type customization struct {
	ratioStep float64
	stages    int
	refine    bool
	gantt     bool
	// verify enables the static verification layer as a compile/run debug
	// gate (-verify; always on in verify mode).
	verify bool
	// profiles, when set, backs the search with a persistent profile
	// cache (-profile-cache).
	profiles *pimflow.ProfileStore
	// trace/metrics, when set, collect observability data across every
	// compile and execute of the invocation (-trace, -metrics).
	trace   *pimflow.Trace
	metrics *pimflow.Metrics
}

func defaultCustomization() customization {
	return customization{ratioStep: 0.1, stages: 2}
}

func configFor(policyName string, pimCh int, c customization) (pimflow.Config, error) {
	p, err := parsePolicy(policyName)
	if err != nil {
		return pimflow.Config{}, err
	}
	cfg := pimflow.DefaultConfig(p)
	cfg.PIMChannels = pimCh
	if c.ratioStep > 0 {
		cfg.RatioStep = c.ratioStep
	}
	if c.stages >= 2 {
		cfg.PipelineStages = c.stages
	}
	cfg.RefineRatio = c.refine
	cfg.Verify = c.verify
	cfg.Profiles = c.profiles
	cfg.Trace = c.trace
	cfg.Metrics = c.metrics
	return cfg, nil
}

func planPath(workdir, net, policyName string) string {
	return filepath.Join(workdir, fmt.Sprintf("%s.%s.plan.json", net, policyName))
}

// loadPlan reads a persisted plan if it exists and matches the requested
// configuration (policy and channel split); otherwise nil.
func loadPlan(workdir, net, policyName string, pimCh int) *pimflow.Plan {
	data, err := os.ReadFile(planPath(workdir, net, policyName))
	if err != nil {
		return nil
	}
	var plan pimflow.Plan
	if err := json.Unmarshal(data, &plan); err != nil {
		return nil
	}
	if plan.Policy.String() != policyName || plan.Options.PIMChannels != pimCh {
		return nil
	}
	return &plan
}

func run(mode, kind, net, policyName, workdir string, gpuOnly bool, pimCh int, timeline string) error {
	return runWith(mode, kind, net, policyName, workdir, gpuOnly, pimCh, timeline, defaultCustomization())
}

func runWith(mode, kind, net, policyName, workdir string, gpuOnly bool, pimCh int, timeline string, c customization) error {
	if mode == "verify" {
		return doVerify(net, policyName, pimCh, c)
	}
	model, err := pimflow.BuildModel(net, pimflow.ModelOptions{Light: true})
	if err != nil {
		return err
	}
	switch mode {
	case "profile":
		return doProfile(model, net, kind, policyName, workdir, pimCh, c)
	case "solve":
		return doSolve(model, net, policyName, workdir, pimCh, c)
	case "run":
		return doRun(model, net, policyName, workdir, gpuOnly, pimCh, timeline, c)
	case "stats":
		fmt.Print(model.Summary())
		return nil
	case "analyze":
		return doAnalyze(model)
	default:
		return fmt.Errorf("unknown mode %q (want profile, solve, run, stats, analyze, or verify)", mode)
	}
}

// doVerify statically verifies one built-in model (or all of them): the
// graph-IR invariants on the untransformed model, the same invariants
// after every transformation pass (the compile runs with the verify gate
// on), and the PIM command-stream protocol plus workload coverage on
// every offloaded layer's generated trace. No simulation output is
// produced; any diagnostic fails the invocation.
func doVerify(net, policyName string, pimCh int, c customization) error {
	names := []string{net}
	if net == "all" {
		names = pimflow.ModelNames()
	}
	c.verify = true
	failed := 0
	report := func(name string, diags []pimflow.Diagnostic) {
		failed++
		fmt.Printf("%-20s FAIL (%d violation(s))\n", name, len(diags))
		for _, d := range diags {
			fmt.Printf("  %s\n", d.String())
		}
	}
	for _, name := range names {
		model, err := pimflow.BuildModel(name, pimflow.ModelOptions{Light: true})
		if err != nil {
			return err
		}
		if diags := pimflow.VerifyGraph(model); len(diags) > 0 {
			report(name, diags)
			continue
		}
		cfg, err := configFor(policyName, pimCh, c)
		if err != nil {
			return err
		}
		compiled, err := pimflow.Compile(model, cfg)
		if err != nil {
			return fmt.Errorf("verify %s: %w", name, err)
		}
		if diags := compiled.Verify(); len(diags) > 0 {
			report(name, diags)
			continue
		}
		pimNodes := 0
		for _, d := range compiled.Plan.Decisions {
			if d.PIMCandidate && d.GPURatio < 1 {
				pimNodes++
			}
		}
		fmt.Printf("%-20s ok (%d nodes, %d offloaded layers, policy %s)\n",
			name, len(compiled.Graph.Nodes), pimNodes, policyName)
	}
	if failed > 0 {
		return fmt.Errorf("verify: %d model(s) failed", failed)
	}
	return nil
}

// doAnalyze prints per-layer lowered dimensions and arithmetic intensity
// (the paper's Fig 1 measure) — useful to see which layers are PIM
// candidates and why.
func doAnalyze(model *pimflow.Graph) error {
	layers, err := pimflow.AnalyzeLayers(model)
	if err != nil {
		return err
	}
	fmt.Printf("%-28s %-6s %8s %8s %8s %6s %12s %8s %5s\n",
		"layer", "op", "M", "K", "N", "grp", "FLOPs", "AI", "PIM")
	for _, l := range layers {
		op := string(l.Op)
		if l.Depthwise {
			op = "DWConv"
		}
		fmt.Printf("%-28s %-6s %8d %8d %8d %6d %12d %8.1f %5v\n",
			l.Name, op, l.M, l.K, l.N, l.Groups, l.FLOPs, l.ArithIntensity, l.PIMCandidate)
	}
	return nil
}

// doProfile runs the search (which profiles every candidate on the
// simulators) and reports the per-layer or per-subgraph measurements.
func doProfile(model *pimflow.Graph, net, kind, policyName, workdir string, pimCh int, c customization) error {
	cfg, err := configFor(policyName, pimCh, c)
	if err != nil {
		return err
	}
	compiled, err := pimflow.Compile(model, cfg)
	if err != nil {
		return err
	}
	plan := compiled.Plan
	switch kind {
	case "split":
		fmt.Printf("%-28s %-10s %10s %10s %10s %8s\n", "layer", "op", "gpu(cyc)", "pim(cyc)", "best(cyc)", "gpu%")
		for _, d := range plan.Decisions {
			if !d.PIMCandidate {
				continue
			}
			fmt.Printf("%-28s %-10s %10d %10d %10d %8.0f\n",
				d.Node, d.Op, d.GPUTime, d.PIMTime, d.BestTime, d.GPURatio*100)
		}
	case "pipeline":
		fmt.Printf("%-12s %6s %12s %12s %8s\n", "pattern", "nodes", "serial(cyc)", "piped(cyc)", "chosen")
		for _, pd := range plan.Pipelines {
			fmt.Printf("%-12s %6d %12d %12d %8v\n",
				pd.Candidate.Pattern, len(pd.Candidate.Nodes), pd.SerialBest, pd.Time, pd.Chosen)
		}
	default:
		return fmt.Errorf("unknown profile kind %q (want split or pipeline)", kind)
	}
	return savePlan(plan, workdir, net, policyName)
}

func savePlan(plan *pimflow.Plan, workdir, net, policyName string) error {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(plan, "", "  ")
	if err != nil {
		return err
	}
	path := planPath(workdir, net, policyName)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("plan saved to %s\n", path)
	return nil
}

// doSolve computes (or recomputes) the optimal plan and prints the
// decision summary and the Table 2 ratio distribution.
func doSolve(model *pimflow.Graph, net, policyName, workdir string, pimCh int, c customization) error {
	cfg, err := configFor(policyName, pimCh, c)
	if err != nil {
		return err
	}
	compiled, err := pimflow.Compile(model, cfg)
	if err != nil {
		return err
	}
	plan := compiled.Plan
	full, split, gpuOnly, pipes := 0, 0, 0, 0
	for _, d := range plan.Decisions {
		if !d.PIMCandidate {
			continue
		}
		switch {
		case d.GPURatio <= 0:
			full++
		case d.GPURatio >= 1:
			gpuOnly++
		default:
			split++
		}
	}
	for _, pd := range plan.Pipelines {
		if pd.Chosen {
			pipes++
		}
	}
	fmt.Printf("model %s, policy %s: %d PIM-candidate layers\n", net, policyName, full+split+gpuOnly)
	fmt.Printf("  full offload: %d, MD-DP split: %d, full GPU: %d, pipelined subgraphs: %d\n",
		full, split, gpuOnly, pipes)
	hist := plan.RatioHistogram()
	buckets := make([]int, 0, len(hist))
	for b := range hist {
		buckets = append(buckets, b)
	}
	sort.Ints(buckets)
	fmt.Print("  split-ratio distribution (% on GPU -> fraction):")
	for _, b := range buckets {
		fmt.Printf(" %d:%.2f", b, hist[b])
	}
	fmt.Println()
	return savePlan(plan, workdir, net, policyName)
}

// doRun executes the transformed model (or the GPU baseline) and prints
// timing and energy. A plan persisted by an earlier profile/solve step is
// reused when present (the artifact's "jump to Step 3" path); otherwise
// the search runs first.
func doRun(model *pimflow.Graph, net, policyName, workdir string, gpuOnly bool, pimCh int, timeline string, c customization) error {
	if gpuOnly {
		policyName = pimflow.PolicyBaseline.String()
	}
	cfg, err := configFor(policyName, pimCh, c)
	if err != nil {
		return err
	}
	var compiled *pimflow.CompiledModel
	if plan := loadPlan(workdir, net, policyName, pimCh); plan != nil {
		compiled, err = pimflow.ApplyPlan(model, plan)
		if err == nil {
			fmt.Printf("reusing plan from %s\n", planPath(workdir, net, policyName))
			// Persisted plans drop the non-serializable fields; re-attach
			// this invocation's store and observability sinks for the run.
			compiled.Config.Profiles = c.profiles
			compiled.Config.Trace = c.trace
			compiled.Config.Metrics = c.metrics
		}
	}
	if compiled == nil {
		compiled, err = pimflow.Compile(model, cfg)
	}
	if err != nil {
		return err
	}
	rep, err := compiled.Run()
	if err != nil {
		return err
	}
	e, err := pimflow.Energy(rep)
	if err != nil {
		return err
	}
	fmt.Printf("model %s, policy %s\n", net, policyName)
	fmt.Printf("  inference time: %.3f ms (%d cycles)\n", rep.Seconds*1e3, rep.TotalCycles)
	fmt.Printf("  device busy: GPU %d cycles, PIM %d cycles, data movement %d cycles\n",
		rep.GPUBusy, rep.PIMBusy, rep.MoveCycles)
	fmt.Printf("  energy: %.2f mJ (GPU static %.2f, GPU dynamic %.2f, PIM %.2f)\n",
		e.Total()*1e3, e.GPUStatic*1e3, e.GPUDynamic*1e3, e.PIMDynamic*1e3)
	if c.gantt {
		fmt.Print(rep.RenderGantt(100))
	}
	if timeline != "" {
		tr := pimflow.NewTrace()
		rep.Draw(tr, rep.StartCycle)
		if err := writeJSONFile(timeline, tr.WriteJSON); err != nil {
			return err
		}
		fmt.Printf("  timeline written to %s (open in chrome://tracing)\n", timeline)
	}
	return nil
}
