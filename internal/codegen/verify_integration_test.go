package codegen_test

import (
	"fmt"
	"testing"

	"pimflow/internal/codegen"
	"pimflow/internal/pim"
	"pimflow/internal/verify"
)

// TestGeneratedTracesPassLinter holds the command generator to the §4.1
// protocol: every trace it emits — across workload shapes, granularities,
// strided GWRITE on and off, and buffer configurations — must pass the
// command-stream linter and cover the workload per the independent oracle.
func TestGeneratedTracesPassLinter(t *testing.T) {
	workloads := []codegen.Workload{
		{M: 1, K: 16, N: 16, Segments: 1},
		{M: 4, K: 64, N: 32, Segments: 1},
		{M: 16, K: 2048, N: 64, Segments: 1},  // K spans several buffer chunks
		{M: 196, K: 576, N: 128, Segments: 1}, // conv-like lowering
		{M: 3, K: 100, N: 7, Segments: 1},     // ragged group tails
		{M: 64, K: 64, N: 1024, Segments: 1},  // many output groups
		{M: 2, K: 4096, N: 4, Segments: 1},    // few units, GranComp row-chunk split
		{M: 8, K: 512, N: 256, Segments: 3},   // segmented (strided-GWRITE) input
	}
	configs := map[string]pim.Config{
		"default": pim.DefaultConfig(),
		"newton":  pim.NewtonConfig(),
	}
	// "comp", "nostrided" (G_ACT) and "nostrided-readres" run every
	// granularity with strided GWRITE off: one GWRITE per input segment.
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
				name := fmt.Sprintf("%s/%s/M%dK%dN%dS%d", cfgName, optName, w.M, w.K, w.N, w.Segments)
				t.Run(name, func(t *testing.T) {
					tr, err := codegen.Generate(w, cfg, o)
					if err != nil {
						t.Fatalf("Generate: %v", err)
					}
					if diags := verify.Trace(tr, cfg); len(diags) != 0 {
						t.Errorf("trace fails protocol lint:\n%v", verify.AsError(diags))
					}
					if diags := verify.Workload(w, cfg, o); len(diags) != 0 {
						t.Errorf("workload coverage fails:\n%v", verify.AsError(diags))
					}
				})
			}
		}
	}
}
