package gpu

import (
	"testing"
	"testing/quick"

	"pimflow/internal/graph"
	"pimflow/internal/lower"
	"pimflow/internal/models"
	"pimflow/internal/tensor"
)

func graphForModel(name string) (*graph.Graph, error) {
	return models.Build(name, models.Options{Light: true})
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.SMs = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero SMs accepted")
	}
	bad = DefaultConfig()
	bad.MemChannels = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero channels accepted")
	}
}

func TestPeakAndBandwidth(t *testing.T) {
	c := DefaultConfig()
	if c.PeakFLOPsPerCycle() != 30*256*2 {
		t.Fatalf("peak %v", c.PeakFLOPsPerCycle())
	}
	if c.BandwidthBytesPerCycle() != 32*16 {
		t.Fatalf("bw %v", c.BandwidthBytesPerCycle())
	}
	if c.WithChannels(16).BandwidthBytesPerCycle() != 16*16 {
		t.Fatal("WithChannels wrong")
	}
}

func TestTimeRoofline(t *testing.T) {
	c := DefaultConfig()
	// Pure compute kernel: peak FLOPs x 1000 at eff 1.0 => 1000 cycles + launch.
	r, err := c.Time(Kernel{FLOPs: 15360 * 1000, DRAMBytes: 0, ComputeEff: 1, MemEff: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles != 1000+c.LaunchOverheadCycles {
		t.Fatalf("cycles %d", r.Cycles)
	}
	if r.MemoryBound {
		t.Fatal("compute kernel reported memory bound")
	}
	// Pure memory kernel: 512e3 bytes at eff 1.0 => 1000 cycles + launch.
	r2, err := c.Time(Kernel{FLOPs: 0, DRAMBytes: 512 * 1000, ComputeEff: 1, MemEff: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Cycles != 1000+c.LaunchOverheadCycles {
		t.Fatalf("cycles %d", r2.Cycles)
	}
	if !r2.MemoryBound {
		t.Fatal("memory kernel not reported memory bound")
	}
}

func TestTimeRejectsNegativeWork(t *testing.T) {
	c := DefaultConfig()
	if _, err := c.Time(Kernel{FLOPs: -1}); err == nil {
		t.Fatal("negative FLOPs accepted")
	}
}

func TestGemvIsMemoryBound(t *testing.T) {
	c := DefaultConfig()
	k := c.GemmKernel(1, 4096, 4096)
	r, err := c.Time(k)
	if err != nil {
		t.Fatal(err)
	}
	if !r.MemoryBound {
		t.Fatal("batch-1 FC not memory bound")
	}
	// Weights dominate traffic: >= 32 MB.
	if k.DRAMBytes < 32<<20 {
		t.Fatalf("FC bytes %d too small", k.DRAMBytes)
	}
}

func TestBigConvIsComputeBound(t *testing.T) {
	c := DefaultConfig()
	p := graph.ConvParams{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadT: 1, PadL: 1, PadB: 1, PadR: 1, Group: 1}
	l, err := lower.LowerConv(tensor.Shape{1, 56, 56, 256}, p, 256)
	if err != nil {
		t.Fatal(err)
	}
	k := c.ConvKernel(56, 56, 256, l)
	r, err := c.Time(k)
	if err != nil {
		t.Fatal(err)
	}
	if r.MemoryBound {
		t.Fatal("56x56x256 3x3 conv reported memory bound")
	}
}

// Halving memory channels should roughly double memory-bound kernel time
// but barely affect compute-bound kernels (paper Fig 3).
func TestChannelScalingSensitivity(t *testing.T) {
	full := DefaultConfig()
	half := full.WithChannels(16)

	memK := full.GemmKernel(1, 4096, 4096)
	rFull, _ := full.Time(memK)
	rHalf, _ := half.Time(memK)
	ratio := float64(rHalf.Cycles) / float64(rFull.Cycles)
	if ratio < 1.7 || ratio > 2.1 {
		t.Fatalf("memory-bound channel scaling ratio %v, want ~2", ratio)
	}

	p := graph.ConvParams{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadT: 1, PadL: 1, PadB: 1, PadR: 1, Group: 1}
	l, _ := lower.LowerConv(tensor.Shape{1, 56, 56, 256}, p, 256)
	compK := full.ConvKernel(56, 56, 256, l)
	cFull, _ := full.Time(compK)
	cHalf, _ := half.Time(compK)
	cRatio := float64(cHalf.Cycles) / float64(cFull.Cycles)
	if cRatio > 1.1 {
		t.Fatalf("compute-bound kernel slowed %vx with halved channels", cRatio)
	}
}

func TestDepthwiseConvMemoryBound(t *testing.T) {
	c := DefaultConfig()
	p := graph.ConvParams{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadT: 1, PadL: 1, PadB: 1, PadR: 1, Group: 384}
	l, err := lower.LowerConv(tensor.Shape{1, 14, 14, 384}, p, 384)
	if err != nil {
		t.Fatal(err)
	}
	k := c.ConvKernel(14, 14, 384, l)
	r, err := c.Time(k)
	if err != nil {
		t.Fatal(err)
	}
	if !r.MemoryBound {
		t.Fatal("depthwise conv not memory bound")
	}
}

func TestNodeKernelCoverage(t *testing.T) {
	b := graph.NewBuilder("cov", 1, 16, 16, 8)
	b.Conv(16, 3, 3, 1, 1, [4]int{1, 1, 1, 1}, 1).Relu()
	b.DepthwiseConv(3, 3, 1, 1, [4]int{1, 1, 1, 1}).Relu6().SiLU().Sigmoid()
	b.MaxPool(2, 2, [4]int{0, 0, 0, 0})
	b.AvgPool(2, 2, [4]int{0, 0, 0, 0})
	b.GlobalAvgPool().Flatten().Gemm(10).Softmax()
	g, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	for _, n := range g.Nodes {
		r, err := TimeNode(g, n, cfg)
		if err != nil {
			t.Errorf("TimeNode(%s %q): %v", n.Op, n.Name, err)
			continue
		}
		if r.Cycles < cfg.LaunchOverheadCycles {
			t.Errorf("node %q cycles %d below launch overhead", n.Name, r.Cycles)
		}
	}
}

func TestNodeKernelElided(t *testing.T) {
	g := graph.New("el")
	g.AddInput("in", 1, 4, 4, 2)
	n := &graph.Node{Name: "s", Op: graph.OpSlice, Inputs: []string{"in"}, Outputs: []string{"out"}, Axis: 1, End: 2}
	g.AddNode(n)
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	k1, err := NodeKernel(g, n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if k1.DRAMBytes == 0 {
		t.Fatal("non-elided slice has no traffic")
	}
	n.Elided = true
	k2, err := NodeKernel(g, n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if k2.DRAMBytes != 0 {
		t.Fatal("elided slice still has traffic")
	}
}

// Write-back caches absorb small outputs; the paper's write-through
// configuration (the default) pays a small slowdown (~2.8% for MobileNet,
// §5 footnote 2).
func TestWriteBackMode(t *testing.T) {
	wt := DefaultConfig() // write-through default
	wb := DefaultConfig()
	wb.WriteBack = true
	k1 := wt.GemmKernel(196, 576, 160)
	k2 := wb.GemmKernel(196, 576, 160)
	if k2.DRAMBytes >= k1.DRAMBytes {
		t.Fatalf("write-back traffic %d not below write-through %d", k2.DRAMBytes, k1.DRAMBytes)
	}
	// Huge outputs spill either way.
	b1 := wt.GemmKernel(50176, 64, 256)
	b2 := wb.GemmKernel(50176, 64, 256)
	if b1.DRAMBytes != b2.DRAMBytes {
		t.Fatalf("L2-exceeding output absorbed: %d vs %d", b1.DRAMBytes, b2.DRAMBytes)
	}
}

// End-to-end, write-through (PIM-coherent) mode should cost only a few
// percent over write-back, as the paper reports.
func TestWriteThroughSlowdownSmall(t *testing.T) {
	g, err := graphForModel("mobilenet-v2")
	if err != nil {
		t.Fatal(err)
	}
	var times [2]int64
	for i, wb := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.WriteBack = wb
		var total int64
		for _, n := range g.Nodes {
			r, err := TimeNode(g, n, cfg)
			if err != nil {
				t.Fatal(err)
			}
			total += r.Cycles
		}
		times[i] = total
	}
	slowdown := float64(times[0])/float64(times[1]) - 1
	if slowdown < 0 || slowdown > 0.15 {
		t.Fatalf("write-through slowdown %.1f%% outside [0,15%%] (paper: ~2.8%%)", slowdown*100)
	}
}

// Property: GPU kernel time is monotone in both FLOPs and bytes.
func TestPropertyTimeMonotone(t *testing.T) {
	c := DefaultConfig()
	f := func(fRaw, bRaw uint32) bool {
		fl := int64(fRaw % 1e7)
		by := int64(bRaw % 1e7)
		r1, err1 := c.Time(Kernel{FLOPs: fl, DRAMBytes: by, ComputeEff: 0.5, MemEff: 0.5})
		r2, err2 := c.Time(Kernel{FLOPs: fl * 2, DRAMBytes: by * 2, ComputeEff: 0.5, MemEff: 0.5})
		return err1 == nil && err2 == nil && r2.Cycles >= r1.Cycles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: more channels never slow a kernel down.
func TestPropertyMoreChannelsNeverSlower(t *testing.T) {
	f := func(chRaw uint8, bRaw uint32) bool {
		ch := int(chRaw%31) + 1
		c1 := DefaultConfig().WithChannels(ch)
		c2 := DefaultConfig().WithChannels(ch + 1)
		k := Kernel{FLOPs: 1e6, DRAMBytes: int64(bRaw % 1e8), ComputeEff: 0.5, MemEff: 0.5}
		r1, err1 := c1.Time(k)
		r2, err2 := c2.Time(k)
		return err1 == nil && err2 == nil && r2.Cycles <= r1.Cycles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// The Winograd knob speeds up eligible 3x3 convolutions and leaves
// pointwise convolutions untouched.
func TestWinogradConvsKnob(t *testing.T) {
	base := DefaultConfig()
	wino := DefaultConfig()
	wino.WinogradConvs = true
	p3 := graph.ConvParams{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadT: 1, PadL: 1, PadB: 1, PadR: 1, Group: 1}
	l3, err := lower.LowerConv(tensor.Shape{1, 56, 56, 256}, p3, 256)
	if err != nil {
		t.Fatal(err)
	}
	if !l3.Winograd {
		t.Fatal("eligible 3x3 conv not flagged")
	}
	r1, _ := base.Time(base.ConvKernel(56, 56, 256, l3))
	r2, _ := wino.Time(wino.ConvKernel(56, 56, 256, l3))
	if r2.Cycles >= r1.Cycles {
		t.Fatalf("winograd (%d) not faster than direct (%d)", r2.Cycles, r1.Cycles)
	}
	p1 := graph.ConvParams{KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1, Group: 1}
	l1, err := lower.LowerConv(tensor.Shape{1, 14, 14, 576}, p1, 160)
	if err != nil {
		t.Fatal(err)
	}
	if l1.Winograd {
		t.Fatal("pointwise conv flagged Winograd-eligible")
	}
	// Strided 3x3 is ineligible.
	pS := p3
	pS.StrideH, pS.StrideW = 2, 2
	lS, err := lower.LowerConv(tensor.Shape{1, 56, 56, 256}, pS, 256)
	if err != nil {
		t.Fatal(err)
	}
	if lS.Winograd {
		t.Fatal("strided conv flagged Winograd-eligible")
	}
}

// TimeNode computes the GPU execution time of one graph node.
func TimeNode(g *graph.Graph, n *graph.Node, cfg Config) (Result, error) {
	k, err := NodeKernel(g, n, cfg)
	if err != nil {
		return Result{}, err
	}
	return cfg.Time(k)
}
