package pimflow_test

import (
	"fmt"
	"log"

	"pimflow"
)

// Quickstart: compile MobileNetV2 with the full PIMFlow pipeline and
// compare it against the GPU-only baseline and the intermediate
// offloading mechanisms.
func Example_quickstart() {
	model, err := pimflow.BuildModel("mobilenet-v2", pimflow.ModelOptions{Light: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model %s: %d nodes\n\n", model.Name, len(model.Nodes))

	var baseline int64
	fmt.Printf("%-12s %12s %10s %12s\n", "policy", "time (ms)", "speedup", "energy (mJ)")
	for _, policy := range pimflow.Policies() {
		compiled, err := pimflow.Compile(model, pimflow.DefaultConfig(policy))
		if err != nil {
			log.Fatal(err)
		}
		report, err := compiled.Run()
		if err != nil {
			log.Fatal(err)
		}
		e, err := pimflow.Energy(report)
		if err != nil {
			log.Fatal(err)
		}
		if policy == pimflow.PolicyBaseline {
			baseline = report.TotalCycles
		}
		fmt.Printf("%-12s %12.3f %9.2fx %12.2f\n",
			policy, report.Seconds*1e3,
			float64(baseline)/float64(report.TotalCycles), e.Total()*1e3)
	}

	// Inspect the PIMFlow plan: how were layers placed?
	compiled, err := pimflow.Compile(model, pimflow.DefaultConfig(pimflow.PolicyPIMFlow))
	if err != nil {
		log.Fatal(err)
	}
	full, split, gpu := 0, 0, 0
	for _, d := range compiled.Plan.Decisions {
		if !d.PIMCandidate {
			continue
		}
		switch {
		case d.GPURatio <= 0:
			full++
		case d.GPURatio >= 1:
			gpu++
		default:
			split++
		}
	}
	fmt.Printf("\nPIMFlow plan: %d layers fully offloaded to PIM, %d split across GPU+PIM, %d on GPU\n",
		full, split, gpu)

	// Output:
	// model mobilenet-v2: 101 nodes
	//
	// policy          time (ms)    speedup  energy (mJ)
	// Baseline            0.413      1.00x        14.14
	// Newton+             0.336      1.23x        11.14
	// Newton++            0.307      1.34x        10.37
	// PIMFlow-md          0.272      1.52x         9.84
	// PIMFlow-pl          0.295      1.40x        10.14
	// PIMFlow             0.269      1.54x         9.74
	//
	// PIMFlow plan: 2 layers fully offloaded to PIM, 29 split across GPU+PIM, 5 on GPU
}

// Channel sweep: explore the GPU/PIM memory channel division of the
// 32-channel GDDR6 memory (the paper's Fig 13 design-space study). The
// sweet spot balances PIM acceleration against GPU bandwidth loss.
func Example_channelSweep() {
	models := []string{"efficientnet-v1-b0", "resnet-50"}
	pimChannels := []int{4, 8, 12, 16, 20, 24}

	for _, name := range models {
		model, err := pimflow.BuildModel(name, pimflow.ModelOptions{Light: true})
		if err != nil {
			log.Fatal(err)
		}
		baseRep, err := pimflow.Execute(model, pimflow.PolicyBaseline)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s (baseline %.3f ms)\n", name, baseRep.Seconds*1e3)
		fmt.Printf("  %-14s %-14s %s\n", "PIM channels", "GPU channels", "speedup")
		bestCh, bestSpeed := 0, 0.0
		for _, pc := range pimChannels {
			cfg := pimflow.DefaultConfig(pimflow.PolicyPIMFlow)
			cfg.PIMChannels = pc
			compiled, err := pimflow.Compile(model, cfg)
			if err != nil {
				log.Fatal(err)
			}
			rep, err := compiled.Run()
			if err != nil {
				log.Fatal(err)
			}
			speed := float64(baseRep.TotalCycles) / float64(rep.TotalCycles)
			fmt.Printf("  %-14d %-14d %.3fx\n", pc, 32-pc, speed)
			if speed > bestSpeed {
				bestSpeed, bestCh = speed, pc
			}
		}
		fmt.Printf("  best division: %d PIM / %d GPU channels (%.2fx)\n\n", bestCh, 32-bestCh, bestSpeed)
	}

	// Output:
	// efficientnet-v1-b0 (baseline 0.527 ms)
	//   PIM channels   GPU channels   speedup
	//   4              28             1.109x
	//   8              24             1.212x
	//   12             20             1.251x
	//   16             16             1.214x
	//   20             12             1.081x
	//   24             8              0.861x
	//   best division: 12 PIM / 20 GPU channels (1.25x)
	//
	// resnet-50 (baseline 1.621 ms)
	//   PIM channels   GPU channels   speedup
	//   4              28             1.028x
	//   8              24             1.054x
	//   12             20             1.063x
	//   16             16             1.054x
	//   20             12             0.991x
	//   24             8              0.868x
	//   best division: 12 PIM / 20 GPU channels (1.06x)
}

// Pipeline explorer: enumerate the pipelining candidate subgraphs of
// MnasNet-1.0 (the paper's 1x1-DW / DW-1x1 / 1x1-DW-1x1 patterns),
// show their profiled times, and report which ones the dynamic program
// selected over MD-DP execution.
func Example_pipelineExplorer() {
	model, err := pimflow.BuildModel("mnasnet-1.0", pimflow.ModelOptions{Light: true})
	if err != nil {
		log.Fatal(err)
	}
	compiled, err := pimflow.Compile(model, pimflow.DefaultConfig(pimflow.PolicyPIMFlow))
	if err != nil {
		log.Fatal(err)
	}
	plan := compiled.Plan

	fmt.Printf("%d pipelining candidates found\n\n", len(plan.Pipelines))
	fmt.Printf("%-12s %-28s %12s %12s %8s %8s\n",
		"pattern", "anchor layer", "serial(cyc)", "piped(cyc)", "gain", "chosen")
	for _, pd := range plan.Pipelines {
		gain := float64(pd.SerialBest)/float64(pd.Time) - 1
		fmt.Printf("%-12s %-28s %12d %12d %7.1f%% %8v\n",
			pd.Candidate.Pattern, pd.Candidate.Nodes[0],
			pd.SerialBest, pd.Time, gain*100, pd.Chosen)
	}

	chosen := 0
	for _, pd := range plan.Pipelines {
		if pd.Chosen {
			chosen++
		}
	}
	rep, err := compiled.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d subgraphs pipelined; end-to-end inference %.3f ms\n", chosen, rep.Seconds*1e3)

	// Output:
	// 49 pipelining candidates found
	//
	// pattern      anchor layer                  serial(cyc)   piped(cyc)     gain   chosen
	// DW-1x1       conv_3                              13295        23748   -44.0%    false
	// 1x1-DW-1x1   conv_6                              17503        76466   -77.1%    false
	// 1x1-DW       conv_6                              15017        59778   -74.9%    false
	// DW-1x1       conv_8                              10241        14136   -27.6%    false
	// 1x1-DW-1x1   conv_11                             11087        42996   -74.2%    false
	// 1x1-DW       conv_11                              7904        27572   -71.3%    false
	// DW-1x1       conv_13                              8000        14307   -44.1%    false
	// 1x1-DW-1x1   conv_17                             11087        42996   -74.2%    false
	// 1x1-DW       conv_17                              7904        27572   -71.3%    false
	// DW-1x1       conv_19                              8000        14307   -44.1%    false
	// 1x1-DW-1x1   conv_23                              9709        34221   -71.6%    false
	// 1x1-DW       conv_23                              6261        26815   -76.7%    false
	// DW-1x1       conv_25                              6622         6424     3.1%     true
	// 1x1-DW-1x1   conv_28                             11363        19671   -42.2%    false
	// 1x1-DW       conv_28                              6950        12420   -44.0%    false
	// DW-1x1       conv_30                              6680         6962    -4.1%    false
	// 1x1-DW-1x1   conv_34                             11363        19671   -42.2%    false
	// 1x1-DW       conv_34                              6950        12420   -44.0%    false
	// DW-1x1       conv_36                              6680         6962    -4.1%    false
	// 1x1-DW-1x1   conv_40                             10783        28264   -61.8%    false
	// 1x1-DW       conv_40                              7439        22360   -66.7%    false
	// DW-1x1       conv_42                              6100         5142    18.6%     true
	// 1x1-DW-1x1   conv_45                             13784        21561   -36.1%    false
	// 1x1-DW       conv_45                              8340        13905   -40.0%    false
	// DW-1x1       conv_47                              7799         7548     3.3%     true
	// 1x1-DW-1x1   conv_51                             13784        21561   -36.1%    false
	// 1x1-DW       conv_51                              8340        13905   -40.0%    false
	// DW-1x1       conv_53                              7799         7548     3.3%     true
	// 1x1-DW-1x1   conv_57                             14675        22344   -34.3%    false
	// 1x1-DW       conv_57                              8265        13633   -39.4%    false
	// DW-1x1       conv_59                              8690         8695    -0.1%    false
	// 1x1-DW-1x1   conv_62                             18067        27997   -35.5%    false
	// 1x1-DW       conv_62                             10149        17307   -41.4%    false
	// DW-1x1       conv_64                             10574        10796    -2.1%    false
	// 1x1-DW-1x1   conv_68                             13604        23896   -43.1%    false
	// 1x1-DW       conv_68                              9412        17003   -44.6%    false
	// DW-1x1       conv_70                              6111         6252    -2.3%    false
	// 1x1-DW-1x1   conv_73                             15392        23503   -34.5%    false
	// 1x1-DW       conv_73                              8588        12809   -33.0%    false
	// DW-1x1       conv_75                              8588        10620   -19.1%    false
	// 1x1-DW-1x1   conv_79                             15392        23503   -34.5%    false
	// 1x1-DW       conv_79                              8588        12809   -33.0%    false
	// DW-1x1       conv_81                              8588        10620   -19.1%    false
	// 1x1-DW-1x1   conv_85                             15392        23503   -34.5%    false
	// 1x1-DW       conv_85                              8588        12809   -33.0%    false
	// DW-1x1       conv_87                              8588        10620   -19.1%    false
	// 1x1-DW-1x1   conv_91                             18064        27276   -33.8%    false
	// 1x1-DW       conv_91                              8408        12472   -32.6%    false
	// DW-1x1       conv_93                             11260        15051   -25.2%    false
	//
	// 4 subgraphs pipelined; end-to-end inference 0.262 ms
}

// Custom model: build a small CNN with the graph builder, optimize it
// with PIMFlow, and verify the transformed graph is numerically identical
// to the original with the reference interpreter.
func Example_customModel() {
	// A stack of inverted-bottleneck blocks with deep channels at 14x14 —
	// the moderate-arithmetic-intensity regime where GPU-PIM mixed
	// execution shines. Full weights so the model can be executed
	// functionally, not just timed.
	b := pimflow.NewGraphBuilder("custom-cnn", 1, 14, 14, 96)
	for i := 0; i < 4; i++ {
		b.PointwiseConv(576).Relu6()
		b.DepthwiseConv(3, 3, 1, 1, [4]int{1, 1, 1, 1}).Relu6()
		b.PointwiseConv(96)
	}
	b.PointwiseConv(1280).Relu6()
	b.GlobalAvgPool().Flatten().Gemm(10).Softmax()
	model, err := b.Finish()
	if err != nil {
		log.Fatal(err)
	}

	compiled, err := pimflow.Compile(model, pimflow.DefaultConfig(pimflow.PolicyPIMFlow))
	if err != nil {
		log.Fatal(err)
	}
	rep, err := compiled.Run()
	if err != nil {
		log.Fatal(err)
	}
	baseRep, err := pimflow.Execute(model, pimflow.PolicyBaseline)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("custom model: baseline %.3f ms -> PIMFlow %.3f ms (%.2fx)\n",
		baseRep.Seconds*1e3, rep.Seconds*1e3,
		float64(baseRep.TotalCycles)/float64(rep.TotalCycles))

	// The transformations must preserve semantics: run both graphs on the
	// same input and compare.
	in := pimflow.NewTensor(1, 14, 14, 96)
	in.FillRandom(42)
	want, err := pimflow.Infer(model, in)
	if err != nil {
		log.Fatal(err)
	}
	got, err := pimflow.Infer(compiled.Graph, in.Clone())
	if err != nil {
		log.Fatal(err)
	}
	maxDiff := 0.0
	for i := range want.Data {
		d := float64(want.Data[i] - got.Data[i])
		if d < 0 {
			d = -d
		}
		if d > maxDiff {
			maxDiff = d
		}
	}
	fmt.Printf("semantics check: max |orig - transformed| = %.2g (outputs %v)\n", maxDiff, want.Shape)
	if maxDiff > 1e-3 {
		log.Fatal("transformed graph diverged from the original")
	}
	fmt.Println("OK: transformed graph is numerically equivalent")

	// Output:
	// custom model: baseline 0.107 ms -> PIMFlow 0.086 ms (1.25x)
	// semantics check: max |orig - transformed| = 0 (outputs [1 10])
	// OK: transformed graph is numerically equivalent
}

// BERT sweep: the paper's model-type sensitivity study (Fig 16) — how
// PIM offloading of a transformer's FC layers behaves across sequence
// lengths. Short sequences are pure batch-1 GEMV territory where PIM wins
// by an order of magnitude; as the sequence grows, the GPU's GEMM
// machinery catches up.
func Example_bertSweep() {
	fmt.Printf("%-8s %14s %14s %10s %10s\n", "seqlen", "baseline (ms)", "PIMFlow (ms)", "speedup", "offloaded")
	for _, seq := range []int{3, 8, 16, 32, 64, 128} {
		model, err := pimflow.BuildModel("bert-base", pimflow.ModelOptions{Light: true, SeqLen: seq})
		if err != nil {
			log.Fatal(err)
		}
		base, err := pimflow.Execute(model, pimflow.PolicyBaseline)
		if err != nil {
			log.Fatal(err)
		}
		compiled, err := pimflow.Compile(model, pimflow.DefaultConfig(pimflow.PolicyPIMFlow))
		if err != nil {
			log.Fatal(err)
		}
		rep, err := compiled.Run()
		if err != nil {
			log.Fatal(err)
		}
		offloaded := 0
		for _, d := range compiled.Plan.Decisions {
			if d.PIMCandidate && d.GPURatio < 1 {
				offloaded++
			}
		}
		fmt.Printf("%-8d %14.3f %14.3f %9.2fx %10d\n",
			seq, base.Seconds*1e3, rep.Seconds*1e3,
			float64(base.TotalCycles)/float64(rep.TotalCycles), offloaded)
	}

	// Output:
	// seqlen    baseline (ms)   PIMFlow (ms)    speedup  offloaded
	// 3                 0.964          0.247      3.91x         72
	// 8                 0.893          0.547      1.63x         72
	// 16                0.873          0.842      1.04x         72
	// 32                1.402          1.414      0.99x         72
	// 64                2.820          2.631      1.07x         72
	// 128               3.431          3.488      0.98x         72
}
