// Package gpu implements an analytical GPU kernel-time model standing in
// for the paper's Accel-Sim + NVBit trace setup. Kernel time follows a
// roofline with launch overhead:
//
//	t = launch + max(FLOPs / (peak · eff_c), bytes / (bw(channels) · eff_m))
//
// where bytes is DRAM traffic after an L2 reuse model, eff_c captures tile
// quantization and occupancy (low for small output grids), and eff_m
// captures achieved bandwidth (low for batch-1 GEMV-like access patterns).
// Memory bandwidth scales with the number of memory channels visible to
// the GPU, which reproduces the paper's channel-count sensitivity results
// (Figs 3 and 13): compute-bound layers barely notice halved channels,
// memory-bound layers slow down proportionally.
//
// The model's constants are calibrated to an RTX 2060-class part (30 SMs,
// fp16 FMA throughput, 3 MB L2) attached to the paper's 32-channel GDDR6
// memory. The compiler only consumes *relative* GPU-vs-PIM layer times, so
// this level of fidelity matches what the paper's search needs.
package gpu

import (
	"fmt"
	"math"

	"pimflow/internal/graph"
	"pimflow/internal/lower"
)

// Config describes the GPU and its visible memory channels.
type Config struct {
	// SMs is the number of streaming multiprocessors.
	SMs int
	// FMAsPerSMPerCycle is fused multiply-adds per SM per cycle (fp16).
	FMAsPerSMPerCycle int
	// ClockGHz is the simulation clock (1.0 keeps cycles == ns).
	ClockGHz float64
	// MemChannels is the number of memory channels the GPU may access.
	// The paper's baseline is 32; enabling PIM on half leaves 16.
	MemChannels int
	// BytesPerCyclePerChannel is per-channel DRAM bandwidth (GDDR6
	// 32-byte bursts over tBL=2 cycles).
	BytesPerCyclePerChannel float64
	// L2Bytes is the last-level cache size used by the reuse model.
	L2Bytes int64
	// LaunchOverheadCycles is fixed per-kernel launch latency.
	LaunchOverheadCycles int64
	// WinogradConvs models a GPU library that applies Winograd
	// F(2x2,3x3) minimal filtering to eligible 3x3 convolutions
	// (36 -> 16 multiplies per tile, extra transformed-tile traffic).
	// Off by default: the paper's RTX 2060 + cuDNN 8.2 baseline shapes
	// reproduce better without it (see EXPERIMENTS.md).
	WinogradConvs bool
	// WriteBack enables write-back caching for kernel outputs: outputs
	// that fit in L2 are consumed by the next kernel without a DRAM round
	// trip. The paper runs with write-through caches to guarantee
	// PIM-visible coherence at the memory level (§5), accepting a ~2.8%
	// slowdown (footnote 2); this flag reproduces that comparison.
	WriteBack bool
}

// DefaultConfig returns the RTX 2060-class configuration with the paper's
// full 32-channel memory (the GPU-only baseline). The FMA rate reflects
// cuDNN's partial use of tensor cores on well-shaped fp16 GEMMs (~15.7
// TFLOPS effective peak, between the 13 TFLOPS plain-fp16 rate and the
// 52 TFLOPS tensor-core ceiling).
func DefaultConfig() Config {
	return Config{
		SMs:                     30,
		FMAsPerSMPerCycle:       256,
		ClockGHz:                1.0,
		MemChannels:             32,
		BytesPerCyclePerChannel: 16,
		L2Bytes:                 3 << 20,
		LaunchOverheadCycles:    400,
	}
}

// WithChannels returns a copy of the config with the given channel count,
// used when a subset of channels is dedicated to PIM.
func (c Config) WithChannels(ch int) Config {
	c.MemChannels = ch
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.SMs < 1 || c.FMAsPerSMPerCycle < 1 || c.ClockGHz <= 0 ||
		c.MemChannels < 1 || c.BytesPerCyclePerChannel <= 0 || c.L2Bytes < 1 ||
		c.LaunchOverheadCycles < 0 {
		return fmt.Errorf("gpu: invalid config %+v", c)
	}
	return nil
}

// PeakFLOPsPerCycle returns peak fp16 FLOPs per cycle (2 per FMA).
func (c Config) PeakFLOPsPerCycle() float64 {
	return float64(c.SMs*c.FMAsPerSMPerCycle) * 2
}

// BandwidthBytesPerCycle returns aggregate DRAM bandwidth.
func (c Config) BandwidthBytesPerCycle() float64 {
	return float64(c.MemChannels) * c.BytesPerCyclePerChannel
}

// Kernel describes one GPU kernel for the roofline model.
type Kernel struct {
	// FLOPs is the arithmetic work.
	FLOPs int64
	// DRAMBytes is memory traffic after cache reuse.
	DRAMBytes int64
	// ComputeEff in (0,1]: achieved fraction of peak arithmetic.
	ComputeEff float64
	// MemEff in (0,1]: achieved fraction of peak bandwidth.
	MemEff float64
}

// Result reports a kernel's simulated execution.
type Result struct {
	Seconds   float64
	Cycles    int64
	FLOPs     int64
	DRAMBytes int64
	// MemoryBound reports which roofline side dominated.
	MemoryBound bool
}

// Time evaluates the roofline for one kernel.
func (c Config) Time(k Kernel) (Result, error) {
	if err := c.Validate(); err != nil {
		return Result{}, err
	}
	if k.FLOPs < 0 || k.DRAMBytes < 0 {
		return Result{}, fmt.Errorf("gpu: negative kernel work %+v", k)
	}
	ce := clamp01(k.ComputeEff, 0.6)
	me := clamp01(k.MemEff, 0.75)
	compute := float64(k.FLOPs) / (c.PeakFLOPsPerCycle() * ce)
	memory := float64(k.DRAMBytes) / (c.BandwidthBytesPerCycle() * me)
	body := math.Max(compute, memory)
	cycles := int64(math.Ceil(body)) + c.LaunchOverheadCycles
	return Result{
		Seconds:     float64(cycles) / (c.ClockGHz * 1e9),
		Cycles:      cycles,
		FLOPs:       k.FLOPs,
		DRAMBytes:   k.DRAMBytes,
		MemoryBound: memory >= compute,
	}, nil
}

func clamp01(v, def float64) float64 {
	if v <= 0 {
		return def
	}
	if v > 1 {
		return 1
	}
	return v
}

// gemmComputeEff models GEMM tile quantization and occupancy: a GEMM with
// few 128x128 output tiles cannot fill the SMs. Library kernels rescue
// small-tile deep-K shapes with split-K decomposition, modeled as up to 4x
// extra parallelism.
func (c Config) gemmComputeEff(m, n, k int) float64 {
	// 64x64 output tiles; small problems keep some parallelism.
	tiles := float64(ceilDiv(m, 64) * ceilDiv(n, 64))
	splitK := float64(k) / 256
	if splitK < 1 {
		splitK = 1
	} else if splitK > 4 {
		splitK = 4
	}
	// Tensor-core-rate peaks need several waves of tiles per SM; small
	// grids run at the plain-FMA rate or below.
	occ := tiles * splitK / float64(4*c.SMs)
	if occ > 1 {
		occ = 1
	}
	// Deep-K GEMMs pipeline better.
	depth := math.Min(1, float64(k)/64)
	eff := 0.65 * occ * (0.5 + 0.5*depth)
	if eff < 0.03 {
		eff = 0.03
	}
	return eff
}

// gemmMemEff models achieved bandwidth: batch-1 GEMV-like kernels with a
// single output row stream weights with poor load efficiency (this is the
// regime where Newton reports an order-of-magnitude PIM win).
func gemmMemEff(m int) float64 {
	// m = output rows. 1 row: ~0.36; >= 64 rows: 0.85.
	return 0.35 + 0.5*math.Min(1, float64(m)/64)
}

// weightSpillFactor models L2 reuse of the weight matrix across output
// row tiles: weights are re-read once per M-tile when they do not fit in
// L2. A single-row GEMV streams weights exactly once regardless of size.
func (c Config) weightSpillFactor(weightBytes int64, m int) float64 {
	budget := float64(c.L2Bytes) * 0.75
	if float64(weightBytes) <= budget {
		return 1
	}
	f := 1 + 0.5*(float64(weightBytes)/budget-1)
	if f > 4 {
		f = 4
	}
	mTiles := float64(ceilDiv(m, 128))
	if f > mTiles {
		f = mTiles
	}
	return f
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// outputTraffic models the DRAM cost of writing a kernel's output: with
// write-through caches (the paper's configuration) every output byte
// reaches DRAM; with write-back, outputs that fit in half the L2 are
// consumed by the next kernel in cache.
func (c Config) outputTraffic(outBytes int64) int64 {
	if !c.WriteBack {
		return outBytes
	}
	budget := c.L2Bytes / 2
	if outBytes <= budget {
		return outBytes / 4 // mostly absorbed; some eviction traffic remains
	}
	return outBytes
}

// GemmKernel builds the roofline kernel for an [M x K] x [K x N] GEMM
// (convolution after lowering, or an FC layer).
func (c Config) GemmKernel(m, k, n int) Kernel {
	flops := 2 * int64(m) * int64(k) * int64(n)
	wBytes := int64(k) * int64(n) * 2
	inBytes := int64(m) * int64(k) * 2
	outBytes := c.outputTraffic(int64(m) * int64(n) * 2)
	bytes := inBytes + outBytes + int64(float64(wBytes)*c.weightSpillFactor(wBytes, m))
	return Kernel{
		FLOPs:      flops,
		DRAMBytes:  bytes,
		ComputeEff: c.gemmComputeEff(m, n, k),
		MemEff:     gemmMemEff(m),
	}
}

// ConvKernel builds the roofline kernel for a (possibly grouped)
// convolution. Unlike the lowered-GEMM PIM mapping, the GPU's implicit-GEMM
// kernels read each unique input element once (cached im2col), so input
// traffic uses the activation size, not M*K.
func (c Config) ConvKernel(inH, inW, inC int, l lower.ConvLowering) Kernel {
	d := l.Dims
	groups := l.Groups
	flops := int64(groups) * d.FLOPs()
	wBytes := int64(groups) * d.WeightBytes()
	inBytes := int64(inH) * int64(inW) * int64(inC) * 2
	outBytes := c.outputTraffic(int64(l.OutH) * int64(l.OutW) * int64(d.N*groups) * 2)
	bytes := inBytes + outBytes + int64(float64(wBytes)*c.weightSpillFactor(wBytes, d.M))
	// Grouped (depthwise) convs are simple streaming kernels: they do not
	// use the GEMM tile machinery, have low arithmetic intensity, and are
	// bandwidth-limited in practice.
	if groups > 1 {
		return Kernel{FLOPs: flops, DRAMBytes: bytes, ComputeEff: 0.3, MemEff: 0.8}
	}
	// Optionally model Winograd F(2x2,3x3) minimal filtering for
	// unit-stride 3x3 convolutions with enough channels (lower.LowerConv
	// flags eligibility): 36 -> 16 multiplies per output tile, at the cost
	// of transformed-tile spill traffic.
	if c.WinogradConvs && l.Winograd {
		flops = int64(float64(flops) / 2.25)
		bytes += inBytes / 2
	}
	ce := c.gemmComputeEff(d.M, d.N, d.K)
	me := gemmMemEff(d.M)
	return Kernel{FLOPs: flops, DRAMBytes: bytes, ComputeEff: ce, MemEff: me}
}

// ElementwiseKernel builds the kernel for elementwise/pool/normalization
// ops: pure streaming traffic.
func ElementwiseKernel(elems int64, readsPerElem int) Kernel {
	bytes := elems * 2 * int64(readsPerElem+1) // reads + one write
	return Kernel{FLOPs: elems * 2, DRAMBytes: bytes, ComputeEff: 0.6, MemEff: 0.85}
}

// NodeKernel maps a graph node to its roofline kernel description.
func NodeKernel(g *graph.Graph, n *graph.Node, cfg Config) (Kernel, error) {
	outTI := g.Tensors[n.Outputs[0]]
	if outTI == nil || !outTI.Shape.Valid() {
		return Kernel{}, fmt.Errorf("gpu: node %q output shape unknown (run InferShapes)", n.Name)
	}
	switch n.Op {
	case graph.OpConv:
		in := g.Tensors[n.Inputs[0]].Shape
		w := g.Tensors[n.Inputs[1]].Shape
		l, err := lower.LowerConv(in, n.Conv, w[3])
		if err != nil {
			return Kernel{}, err
		}
		return cfg.ConvKernel(in[1], in[2], in[3], l), nil
	case graph.OpGemm:
		in := g.Tensors[n.Inputs[0]].Shape
		w := g.Tensors[n.Inputs[1]].Shape
		return cfg.GemmKernel(in[0], in[1], w[1]), nil
	case graph.OpMatMul:
		a := g.Tensors[n.Inputs[0]].Shape
		b := g.Tensors[n.Inputs[1]].Shape
		if len(a) == 3 {
			k := cfg.GemmKernel(a[1], a[2], b[2])
			k.FLOPs *= int64(a[0])
			k.DRAMBytes *= int64(a[0])
			return k, nil
		}
		return cfg.GemmKernel(a[0], a[1], b[1]), nil
	case graph.OpAdd, graph.OpMul, graph.OpRelu, graph.OpClip, graph.OpSigmoid,
		graph.OpSiLU, graph.OpGelu, graph.OpSoftmax, graph.OpLayerNorm,
		graph.OpIdentity, graph.OpTranspose, graph.OpBatchNorm:
		reads := 1
		if n.Op == graph.OpAdd || n.Op == graph.OpMul {
			reads = 2
		}
		return ElementwiseKernel(int64(outTI.Shape.Elems()), reads), nil
	case graph.OpMaxPool, graph.OpAvgPool:
		return ElementwiseKernel(int64(outTI.Shape.Elems()), n.Conv.KernelH*n.Conv.KernelW), nil
	case graph.OpGlobalAvgPool:
		in := g.Tensors[n.Inputs[0]].Shape
		return ElementwiseKernel(int64(in.Elems()), 1), nil
	case graph.OpFlatten:
		// Metadata-only reshape.
		return Kernel{ComputeEff: 1, MemEff: 1}, nil
	case graph.OpConcat, graph.OpSlice, graph.OpPad:
		// Data-movement ops; the memory optimizer may elide them (the
		// transform pass marks elided ops as Identity-cost).
		if n.Elided {
			return Kernel{ComputeEff: 1, MemEff: 1}, nil
		}
		return ElementwiseKernel(int64(outTI.Shape.Elems()), 1), nil
	default:
		return Kernel{}, fmt.Errorf("gpu: unsupported op %s", n.Op)
	}
}
