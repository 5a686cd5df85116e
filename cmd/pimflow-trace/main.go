// Command pimflow-trace generates and inspects the DRAM-PIM command trace
// of one PIM-offloadable layer, the equivalent of the artifact's trace
// files fed to the Ramulator-based simulator.
//
//	pimflow-trace -m 196 -k 576 -n 160            a lowered conv GEMM
//	pimflow-trace -m 1 -k 4096 -n 4096 -dump      batch-1 FC, full listing
//	pimflow-trace -m 196 -k 576 -n 160 -newton    Newton+ feature set
//
// With -summary it instead reads back a Chrome trace file written by
// this repo's tooling (pimflow-bench -trace, pimflow-fleet -trace) and
// prints per-stage/per-model cycle totals from the request lanes plus
// device busy totals, so attributed traces are inspectable without a
// browser:
//
//	pimflow-trace -summary poisson.trace.json
package main

import (
	"flag"
	"fmt"
	"os"

	"pimflow/internal/codegen"
	"pimflow/internal/pim"
)

func main() {
	var (
		m        = flag.Int("m", 196, "input vectors (output spatial positions)")
		k        = flag.Int("k", 576, "vector length (lowered patch size)")
		n        = flag.Int("n", 160, "outputs (filter count)")
		segments = flag.Int("segments", 1, "contiguous input segments per vector (KH for kxk convs)")
		channels = flag.Int("channels", 16, "PIM-enabled channels")
		newton   = flag.Bool("newton", false, "use the baseline Newton feature set (1 buffer, no hiding, no strided GWRITE)")
		dump     = flag.Bool("dump", false, "print the full per-channel command listing")
		summary  = flag.String("summary", "", "summarize a Chrome trace file (per-stage/per-model cycle totals) instead of generating a command trace")
	)
	flag.Parse()
	if *summary != "" {
		f, err := os.Open(*summary)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pimflow-trace:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := summarize(f, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "pimflow-trace:", err)
			os.Exit(1)
		}
		return
	}
	cfg := pim.DefaultConfig()
	opts := codegen.DefaultOpts()
	if *newton {
		cfg = pim.NewtonConfig()
		opts = codegen.Opts{Granularity: codegen.GranComp, StridedGWrite: false}
	}
	cfg.Channels = *channels
	w := codegen.Workload{M: *m, K: *k, N: *n, Segments: *segments}
	tr, err := codegen.Generate(w, cfg, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pimflow-trace:", err)
		os.Exit(1)
	}
	if err := tr.Validate(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "pimflow-trace: invalid trace:", err)
		os.Exit(1)
	}
	st, err := pim.Simulate(cfg, tr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pimflow-trace:", err)
		os.Exit(1)
	}
	fmt.Printf("workload: [%d x %d] x [%d x %d] GEMM (%d segments/vector)\n", *m, *k, *k, *n, *segments)
	fmt.Printf("trace: %s\n", tr.Summary())
	fmt.Printf("timing: %d cycles (%.3f us at %.1f GHz), MAC pipeline busy %.0f%%\n",
		st.Cycles, st.Seconds*1e6, cfg.ClockGHz, st.BusyFraction*100)
	if *dump {
		if err := tr.Dump(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "pimflow-trace:", err)
			os.Exit(1)
		}
	}
}
