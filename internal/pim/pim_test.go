package pim

import (
	"testing"
	"testing/quick"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := NewtonConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.Channels = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero channels accepted")
	}
	bad = DefaultConfig()
	bad.GlobalBufs = 3
	if err := bad.Validate(); err == nil {
		t.Error("3 global buffers accepted")
	}
	bad = DefaultConfig()
	bad.Timing.TCCDL = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero tCCDL accepted")
	}
}

// WeightsPerRowActivation returns the number of fp16 weight elements one
// G_ACT exposes per channel: every bank opens one row of
// ColumnIOsPerRow × (ColumnIOBytes/2) elements.
func (c Config) WeightsPerRowActivation() int {
	return c.BanksPerChannel * c.ColumnIOsPerRow * (c.ColumnIOBytes / 2)
}

func TestConfigDerived(t *testing.T) {
	c := DefaultConfig()
	if c.BufElems() != 2048 {
		t.Errorf("BufElems = %d, want 2048 (4KB of fp16)", c.BufElems())
	}
	// 16 banks x 32 colIOs x 16 elements = 8192 weights per activation.
	if c.WeightsPerRowActivation() != 8192 {
		t.Errorf("WeightsPerRowActivation = %d, want 8192", c.WeightsPerRowActivation())
	}
	if c.LanesPerChannel() != 16 {
		t.Errorf("LanesPerChannel = %d, want 16", c.LanesPerChannel())
	}
	if s := c.CyclesToSeconds(1e9); s != 1.0 {
		t.Errorf("1e9 cycles at 1GHz = %v s, want 1", s)
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		KindGWrite: "GWRITE", KindGWrite2: "GWRITE_2", KindGWrite4: "GWRITE_4",
		KindGWriteStrided: "GWRITE_S", KindGAct: "G_ACT", KindComp: "COMP", KindReadRes: "READRES",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if !KindGWriteStrided.IsGWrite() || KindGAct.IsGWrite() {
		t.Error("IsGWrite misclassifies")
	}
}

// Hand-computed single-channel sequence: GWRITE(4 bursts) -> G_ACT ->
// COMP(8 cols) -> READRES(2 bursts), no latency hiding.
func TestSimulateHandComputedSerial(t *testing.T) {
	cfg := NewtonConfig() // hiding off
	tr := &Trace{Channels: []ChannelTrace{{Channel: 0, Commands: []Command{
		{Kind: KindGWrite, Bursts: 4},
		{Kind: KindGAct, NewRow: true},
		{Kind: KindComp, Cols: 8},
		{Kind: KindReadRes, Bursts: 2},
	}}}}
	st, err := Simulate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	// GWRITE: 4*2 = 8 cycles -> t=8. G_ACT at 8 (no open row): row ready
	// 8+11=19, t=9. COMP: start max(9,19,8,0)=19, dur 16 -> 35, t=35.
	// READRES: start 35, done 35+11+4 = 50.
	if st.Cycles != 50 {
		t.Fatalf("cycles = %d, want 50", st.Cycles)
	}
	if st.Counts.GWrites != 1 || st.Counts.GActs != 1 || st.Counts.Comps != 1 || st.Counts.ReadRes != 1 {
		t.Fatalf("counts %+v", st.Counts)
	}
	if st.Counts.MACs != 8*16*16 {
		t.Fatalf("MACs = %d", st.Counts.MACs)
	}
}

// With latency hiding the G_ACT overlaps the GWRITE transfer, so the COMP
// can start as soon as both the buffer (cycle 8) and the row (cycle 1+11)
// are ready.
func TestSimulateLatencyHiding(t *testing.T) {
	cfg := DefaultConfig() // hiding on
	tr := &Trace{Channels: []ChannelTrace{{Channel: 0, Commands: []Command{
		{Kind: KindGWrite, Bursts: 4},
		{Kind: KindGAct, NewRow: true},
		{Kind: KindComp, Cols: 8},
		{Kind: KindReadRes, Bursts: 2},
	}}}}
	st, err := Simulate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	// GWRITE: buffer ready at 8, t=1. G_ACT: row ready 1+11=12, t=2.
	// COMP: start max(2,12,8)=12, dur 16 -> 28. READRES: 28+11+4 = 43.
	if st.Cycles != 43 {
		t.Fatalf("cycles = %d, want 43", st.Cycles)
	}
}

func TestSimulatePrechargeRespectsTRAS(t *testing.T) {
	cfg := NewtonConfig()
	tr := &Trace{Channels: []ChannelTrace{{Channel: 0, Commands: []Command{
		{Kind: KindGAct, NewRow: true},
		{Kind: KindGAct, NewRow: true},
		{Kind: KindComp, Cols: 1},
	}}}}
	st, err := Simulate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	// First G_ACT: row open at 11, t=1. Second: must wait tRAS from row
	// open: pre at max(1, 11+25)=36, ready 36+11+11=58, t=37.
	// COMP: start 58, done 60.
	if st.Cycles != 60 {
		t.Fatalf("cycles = %d, want 60", st.Cycles)
	}
	if st.Counts.NewRows != 2 {
		t.Fatalf("NewRows = %d", st.Counts.NewRows)
	}
}

func TestSimulateMakespanIsMaxChannel(t *testing.T) {
	cfg := DefaultConfig()
	tr := &Trace{Channels: []ChannelTrace{
		{Channel: 0, Commands: []Command{{Kind: KindComp, Cols: 100}}},
		{Channel: 1, Commands: []Command{{Kind: KindComp, Cols: 10}}},
	}}
	st, err := Simulate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles != 200 {
		t.Fatalf("makespan %d, want 200", st.Cycles)
	}
	if len(st.PerChannel) != 2 || st.PerChannel[0] != 200 || st.PerChannel[1] != 20 {
		t.Fatalf("per-channel %v", st.PerChannel)
	}
}

func TestSimulateErrors(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := Simulate(cfg, &Trace{}); err == nil {
		t.Error("empty trace accepted")
	}
	tooMany := &Trace{Channels: make([]ChannelTrace, cfg.Channels+1)}
	if _, err := Simulate(cfg, tooMany); err == nil {
		t.Error("channel overflow accepted")
	}
	bad := &Trace{Channels: []ChannelTrace{{Commands: []Command{{Kind: KindComp, Cols: 0}}}}}
	if _, err := Simulate(cfg, bad); err == nil {
		t.Error("zero-col COMP accepted")
	}
	badCfg := cfg
	badCfg.GlobalBufs = 5
	ok := &Trace{Channels: []ChannelTrace{{Commands: []Command{{Kind: KindComp, Cols: 1}}}}}
	if _, err := Simulate(badCfg, ok); err == nil {
		t.Error("invalid config accepted")
	}
}

// Property: simulated time is monotonic in COMP stream length.
func TestPropertyMonotonicInWork(t *testing.T) {
	cfg := DefaultConfig()
	f := func(aRaw, bRaw uint16) bool {
		a := int(aRaw%1000) + 1
		b := a + int(bRaw%1000)
		mk := func(cols int) int64 {
			tr := &Trace{Channels: []ChannelTrace{{Commands: []Command{
				{Kind: KindGWrite, Bursts: 8},
				{Kind: KindGAct, NewRow: true},
				{Kind: KindComp, Cols: cols},
				{Kind: KindReadRes, Bursts: 2},
			}}}}
			st, err := Simulate(cfg, tr)
			if err != nil {
				return -1
			}
			return st.Cycles
		}
		ta, tb := mk(a), mk(b)
		return ta > 0 && tb >= ta
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: latency hiding never makes a trace slower.
func TestPropertyHidingNeverSlower(t *testing.T) {
	f := func(bursts, cols uint8) bool {
		tr := func() *Trace {
			return &Trace{Channels: []ChannelTrace{{Commands: []Command{
				{Kind: KindGWrite, Bursts: int(bursts%64) + 1},
				{Kind: KindGAct, NewRow: true},
				{Kind: KindComp, Cols: int(cols%64) + 1},
				{Kind: KindReadRes, Bursts: 1},
			}}}}
		}
		off := NewtonConfig()
		on := NewtonConfig()
		on.GWriteLatencyHiding = true
		sOff, err1 := Simulate(off, tr())
		sOn, err2 := Simulate(on, tr())
		return err1 == nil && err2 == nil && sOn.Cycles <= sOff.Cycles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Refresh modeling stretches kernels by the tRFC/tREFI duty cycle
// (~9.9% at the default GDDR6 intervals) and is off by default.
func TestRefreshModeling(t *testing.T) {
	tr := func() *Trace {
		return &Trace{Channels: []ChannelTrace{{Commands: []Command{
			{Kind: KindGWrite, Bursts: 8},
			{Kind: KindGAct, NewRow: true},
			{Kind: KindComp, Cols: 5000},
			{Kind: KindReadRes, Bursts: 2},
		}}}}
	}
	off := DefaultConfig()
	on := DefaultConfig()
	on.ModelRefresh = true
	sOff, err := Simulate(off, tr())
	if err != nil {
		t.Fatal(err)
	}
	sOn, err := Simulate(on, tr())
	if err != nil {
		t.Fatal(err)
	}
	stretch := float64(sOn.Cycles)/float64(sOff.Cycles) - 1
	if stretch < 0.08 || stretch > 0.12 {
		t.Fatalf("refresh stretch %.3f, want ~0.099 (tRFC 350 / (tREFI-tRFC) 3550)", stretch)
	}
	bad := DefaultConfig()
	bad.ModelRefresh = true
	bad.Timing.TRFC = 5000 // >= tREFI
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid refresh timing accepted")
	}
}

func TestBusyFraction(t *testing.T) {
	cfg := DefaultConfig()
	tr := &Trace{Channels: []ChannelTrace{{Commands: []Command{{Kind: KindComp, Cols: 50}}}}}
	st, err := Simulate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if st.BusyFraction != 1.0 {
		t.Fatalf("pure-COMP busy fraction %v, want 1", st.BusyFraction)
	}
}

func TestCountsAdd(t *testing.T) {
	a := Counts{GWrites: 1, GActs: 2, Comps: 3, ReadRes: 4, ColIOs: 5, GWBursts: 6, RRBursts: 7, NewRows: 8, MACs: 9}
	b := a
	a.Add(b)
	if a.GWrites != 2 || a.MACs != 18 || a.NewRows != 16 {
		t.Fatalf("Add wrong: %+v", a)
	}
}

func TestTraceTotalCommands(t *testing.T) {
	tr := &Trace{Channels: []ChannelTrace{
		{Commands: make([]Command, 3)},
		{Commands: make([]Command, 5)},
	}}
	if tr.TotalCommands() != 8 {
		t.Fatalf("TotalCommands = %d", tr.TotalCommands())
	}
}

// Bank ping-pong hides G_ACT latency behind the COMP stream of the
// previous row and never slows a trace down.
func TestBankPingPong(t *testing.T) {
	mk := func() *Trace {
		var cmds []Command
		cmds = append(cmds, Command{Kind: KindGWrite, Bursts: 8})
		for i := 0; i < 10; i++ {
			cmds = append(cmds, Command{Kind: KindGAct, NewRow: true})
			cmds = append(cmds, Command{Kind: KindComp, Cols: 32})
		}
		cmds = append(cmds, Command{Kind: KindReadRes, Bursts: 2})
		return &Trace{Channels: []ChannelTrace{{Commands: cmds}}}
	}
	plain := DefaultConfig()
	pp := DefaultConfig()
	pp.BankPingPong = true
	sPlain, err := Simulate(plain, mk())
	if err != nil {
		t.Fatal(err)
	}
	sPP, err := Simulate(pp, mk())
	if err != nil {
		t.Fatal(err)
	}
	if sPP.Cycles >= sPlain.Cycles {
		t.Fatalf("ping-pong (%d) not faster than lockstep (%d)", sPP.Cycles, sPlain.Cycles)
	}
	// The saving is roughly the hidden activation time: 9 overlapped
	// activations x ~(tRP+tRCD) bounded by the tRAS window.
	saved := sPlain.Cycles - sPP.Cycles
	if saved < 9*10 {
		t.Fatalf("saving %d cycles implausibly small", saved)
	}
}
