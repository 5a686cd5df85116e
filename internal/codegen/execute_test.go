package codegen

import (
	"fmt"
	"testing"
	"testing/quick"

	"pimflow/internal/graph"
	"pimflow/internal/interp"
	"pimflow/internal/lower"
	"pimflow/internal/pim"
	"pimflow/internal/tensor"
)

// Execute runs the workload *functionally* through its plan's unit
// schedule (forEachUnit), the one Stream emits as command blocks: global
// buffers are loaded with K-chunks of the input vectors (GWRITE), per-bank
// MAC lanes multiply weight columns against buffer contents and
// accumulate into result latches (G_ACT + COMP), and latches drain into
// the output matrix (READRES). The result
// must equal the plain matrix product — the numerical proof that the PIM
// command mapping covers every multiply-accumulate exactly once, with no
// double counting across channels, K-chunks, or output groups.
//
// inputs is the [M x K] activation matrix; weights is [K x N]. Returns
// the [M x N] product. Grouped workloads execute one group per call: pass
// the per-group matrices and Groups unset.
func Execute(w Workload, inputs, weights *tensor.Tensor, cfg pim.Config, opts Opts) (*tensor.Tensor, error) {
	if w.GroupCount() > 1 {
		return nil, fmt.Errorf("codegen: Execute takes per-group matrices; set Groups to 0/1 and call once per group")
	}
	if !inputs.Shape.Equal(tensor.Shape{w.M, w.K}) {
		return nil, fmt.Errorf("codegen: inputs shape %v, want [%d %d]", inputs.Shape, w.M, w.K)
	}
	if !weights.Shape.Equal(tensor.Shape{w.K, w.N}) {
		return nil, fmt.Errorf("codegen: weights shape %v, want [%d %d]", weights.Shape, w.K, w.N)
	}
	assign, err := scheduleUnits(w, cfg, opts)
	if err != nil {
		return nil, err
	}
	lanes := cfg.LanesPerChannel()
	out := tensor.New(w.M, w.N)
	// Per-channel state: the global buffers (one per buffered vector of
	// the current group) and the per-lane result latches.
	for ch := range assign {
		buffers := make([][]float32, cfg.GlobalBufs)
		loadedVG, loadedKS := -1, -1
		for _, u := range assign[ch] {
			// GWRITE: load the K-chunk of each vector in the group into
			// its global buffer, mirroring the trace generator's reuse of
			// a loaded chunk across consecutive output groups.
			if u.vecGroup != loadedVG || u.kStart != loadedKS {
				for v := 0; v < u.nVecs; v++ {
					row := u.vecGroup*cfg.GlobalBufs + v
					buffers[v] = inputs.Data[row*w.K+u.kStart : row*w.K+u.kStart+u.kLen]
				}
				loadedVG, loadedKS = u.vecGroup, u.kStart
			}
			// G_ACT + COMP: each bank lane holds one output column of the
			// group; the MAC tree reduces the buffer against the weight
			// column segment. READRES accumulates into the output (partial
			// K-chunks merge by addition, as the GPU-side reducer does).
			for v := 0; v < u.nVecs; v++ {
				row := u.vecGroup*cfg.GlobalBufs + v
				buf := buffers[v]
				for lane := 0; lane < u.outLanes; lane++ {
					col := u.ogIndex*lanes + lane
					var latch float32
					for k := 0; k < u.kLen; k++ {
						latch += buf[k] * weights.Data[(u.kStart+k)*w.N+col]
					}
					out.Data[row*w.N+col] += latch
				}
			}
		}
	}
	return out, nil
}

// scheduleUnits materializes the per-channel unit assignment that
// Execute runs.
func scheduleUnits(w Workload, cfg pim.Config, opts Opts) ([][]unit, error) {
	p, err := newPlan(w, cfg, opts)
	if err != nil {
		return nil, err
	}
	assign := make([][]unit, cfg.Channels)
	for ch := 0; ch < cfg.Channels; ch++ {
		if n := p.channelUnits(ch); n > 0 {
			assign[ch] = make([]unit, 0, n)
			p.forEachUnit(ch, func(u unit) {
				assign[ch] = append(assign[ch], u)
			})
		}
	}
	return assign, nil
}

func matmulRef(a, b *tensor.Tensor) *tensor.Tensor {
	out, err := interp.Gemm(a, b, nil)
	if err != nil {
		panic(err)
	}
	return out
}

func TestExecuteMatchesGemmSmall(t *testing.T) {
	w := Workload{M: 3, K: 20, N: 10, Segments: 1}
	in := tensor.New(3, 20)
	in.FillRandom(1)
	wt := tensor.New(20, 10)
	wt.FillRandom(2)
	got, err := Execute(w, in, wt, pim.DefaultConfig(), DefaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(matmulRef(in, wt), got, 1e-4) {
		t.Fatal("functional PIM execution diverges from GEMM")
	}
}

func TestExecuteShapeErrors(t *testing.T) {
	w := Workload{M: 2, K: 4, N: 3, Segments: 1}
	cfg := pim.DefaultConfig()
	if _, err := Execute(w, tensor.New(2, 5), tensor.New(4, 3), cfg, DefaultOpts()); err == nil {
		t.Error("bad input shape accepted")
	}
	if _, err := Execute(w, tensor.New(2, 4), tensor.New(5, 3), cfg, DefaultOpts()); err == nil {
		t.Error("bad weight shape accepted")
	}
}

// The central numerical property: for any workload shape, granularity,
// and buffer count, the scheduled unit decomposition computes exactly the
// matrix product — every MAC covered once, none double counted.
func TestPropertyExecuteEqualsGemm(t *testing.T) {
	f := func(seed int64, mRaw, kRaw, nRaw, granRaw, bufsRaw uint8) bool {
		cfg := pim.DefaultConfig()
		cfg.GlobalBufs = []int{1, 2, 4}[int(bufsRaw)%3]
		w := Workload{
			M:        int(mRaw%12) + 1,
			K:        int(kRaw)*9 + 1, // up to ~2300, crossing the buffer capacity
			N:        int(nRaw%70) + 1,
			Segments: 1,
		}
		opts := Opts{Granularity: Granularity(granRaw % 3), StridedGWrite: true}
		in := tensor.New(w.M, w.K)
		in.FillRandom(seed)
		wt := tensor.New(w.K, w.N)
		wt.FillRandom(seed + 1)
		got, err := Execute(w, in, wt, cfg, opts)
		if err != nil {
			return false
		}
		return tensor.AllClose(matmulRef(in, wt), got, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// End-to-end numerics: a convolution lowered with im2col and executed
// through the PIM unit schedule equals the reference direct convolution
// (the full Fig 2 path: conv lowering -> PIM GEMV mapping).
func TestExecuteLoweredConvMatchesDirect(t *testing.T) {
	p := graph.ConvParams{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadT: 1, PadL: 1, PadB: 1, PadR: 1, Group: 1}
	in := tensor.New(1, 9, 7, 5)
	in.FillRandom(3)
	wt := tensor.New(3, 3, 5, 12)
	wt.FillRandom(4)

	direct, err := interp.Conv(in, wt, nil, p)
	if err != nil {
		t.Fatal(err)
	}
	lowered, err := lower.Im2col(in, p)
	if err != nil {
		t.Fatal(err)
	}
	filt, err := lower.FilterMatrix(wt)
	if err != nil {
		t.Fatal(err)
	}
	w := Workload{M: lowered.Shape[0], K: lowered.Shape[1], N: filt.Shape[1], Segments: p.KernelH}
	got, err := Execute(w, lowered, filt, pim.DefaultConfig(), DefaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	got.Shape = direct.Shape.Clone()
	if !tensor.AllClose(direct, got, 1e-3) {
		t.Fatalf("PIM-executed conv diverges: max diff %v", tensor.MaxAbsDiff(direct, got))
	}
}
