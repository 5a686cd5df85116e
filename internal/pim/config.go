// Package pim implements a cycle-level timing simulator for the
// Newton/AiM-style PIM-enabled GDDR6 DRAM described in the paper
// (§2.1, §4.1, Table 1). The simulator executes PIM command traces —
// GWRITE / G_ACT / COMP / READRES sequences — against per-channel bank and
// global-buffer state, honoring DRAM timing parameters. It is the
// replacement for the paper's modified Ramulator.
package pim

import "fmt"

// Timing holds the GDDR6 timing parameters in command-clock cycles
// (Table 1). The paper's table lists the values 2, 11, 11, 11, 2, 25 with
// garbled parameter glyphs; we adopt the standard GDDR6 parameter set that
// matches Newton's description. TREFI/TRFC govern optional refresh
// modeling (off by default to match the paper's command-latency table;
// enable via Config.ModelRefresh for Ramulator-grade accounting).
type Timing struct {
	TCCDL int // column-to-column delay; COMP issue interval
	TRCD  int // row activate to column access
	TRP   int // precharge before activating a different row
	TCL   int // column access (read) latency; READRES initial latency
	TBL   int // burst length in cycles per 32-byte burst
	TRAS  int // minimum row-open time
	TREFI int // average refresh interval (all-bank)
	TRFC  int // refresh cycle time (channel stalled)
}

// DefaultTiming returns the Table 1 timing parameters plus standard GDDR6
// refresh intervals (tREFI 3.9 us, tRFC 350 ns at the 1 GHz sim clock).
func DefaultTiming() Timing {
	return Timing{TCCDL: 2, TRCD: 11, TRP: 11, TCL: 11, TBL: 2, TRAS: 25, TREFI: 3900, TRFC: 350}
}

// Config describes one PIM-enabled memory configuration (Table 1 plus the
// §4.1 extensions).
type Config struct {
	// Channels is the number of PIM-enabled memory channels (the paper's
	// default GPU memory splits 32 channels into 16 GPU + 16 PIM).
	Channels int
	// BanksPerChannel is the number of DRAM banks per channel (16).
	BanksPerChannel int
	// ColumnIOBytes is the width of one column I/O in bytes (256 bits).
	ColumnIOBytes int
	// ColumnIOsPerRow is the number of column I/Os per activated row (32).
	ColumnIOsPerRow int
	// GlobalBufBytes is the size of one global buffer (4 KB).
	GlobalBufBytes int
	// GlobalBufs is the number of global buffers per channel: 1 in Newton,
	// 2 in AiM, 4 in PIMFlow's extension (§4.1).
	GlobalBufs int
	// MultsPerBank is the number of multipliers per bank (16).
	MultsPerBank int
	// BurstBytes is the data-bus burst size in bytes (32).
	BurstBytes int
	// ClockGHz converts cycles to seconds.
	ClockGHz float64

	// GWriteLatencyHiding enables asynchronous G_ACT issue during GWRITE
	// (§4.1): data is fetched from GPU channels while PIM channels
	// activate rows, so the two overlap.
	GWriteLatencyHiding bool

	// ModelRefresh charges periodic all-bank refresh stalls (tRFC every
	// tREFI). Off by default: the paper's Table 1 does not include
	// refresh parameters, and PIM kernels are short relative to tREFI.
	ModelRefresh bool

	// BankPingPong activates weight rows in alternating bank groups, so a
	// G_ACT for the next row overlaps the COMP stream of the current one
	// (GDDR6 provides four bank groups). An extension beyond the paper's
	// Newton++ feature set; off by default to preserve its calibration.
	BankPingPong bool

	Timing Timing
}

// DefaultConfig returns the paper's PIM-side configuration: 16 PIM
// channels of the 32-channel GPU memory, with all PIMFlow command
// extensions enabled (the "Newton++" feature set).
func DefaultConfig() Config {
	return Config{
		Channels:            16,
		BanksPerChannel:     16,
		ColumnIOBytes:       32,
		ColumnIOsPerRow:     32,
		GlobalBufBytes:      4096,
		GlobalBufs:          4,
		MultsPerBank:        16,
		BurstBytes:          32,
		ClockGHz:            1.0,
		GWriteLatencyHiding: true,
		Timing:              DefaultTiming(),
	}
}

// NewtonConfig returns the baseline Newton feature set used by the
// "Newton+" offloading mechanism: one global buffer, no GWRITE latency
// hiding.
func NewtonConfig() Config {
	c := DefaultConfig()
	c.GlobalBufs = 1
	c.GWriteLatencyHiding = false
	return c
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	switch {
	case c.Channels < 1:
		return fmt.Errorf("pim: Channels %d < 1", c.Channels)
	case c.BanksPerChannel < 1:
		return fmt.Errorf("pim: BanksPerChannel %d < 1", c.BanksPerChannel)
	case c.ColumnIOBytes < 2:
		return fmt.Errorf("pim: ColumnIOBytes %d < 2", c.ColumnIOBytes)
	case c.ColumnIOsPerRow < 1:
		return fmt.Errorf("pim: ColumnIOsPerRow %d < 1", c.ColumnIOsPerRow)
	case c.GlobalBufBytes < c.ColumnIOBytes:
		return fmt.Errorf("pim: GlobalBufBytes %d < ColumnIOBytes", c.GlobalBufBytes)
	case c.GlobalBufs != 1 && c.GlobalBufs != 2 && c.GlobalBufs != 4:
		return fmt.Errorf("pim: GlobalBufs %d not in {1,2,4}", c.GlobalBufs)
	case c.MultsPerBank < 1:
		return fmt.Errorf("pim: MultsPerBank %d < 1", c.MultsPerBank)
	case c.BurstBytes < 1:
		return fmt.Errorf("pim: BurstBytes %d < 1", c.BurstBytes)
	case c.ClockGHz <= 0:
		return fmt.Errorf("pim: ClockGHz %v <= 0", c.ClockGHz)
	}
	t := c.Timing
	if t.TCCDL < 1 || t.TRCD < 1 || t.TRP < 0 || t.TCL < 1 || t.TBL < 1 || t.TRAS < 1 {
		return fmt.Errorf("pim: invalid timing %+v", t)
	}
	if c.ModelRefresh && (t.TREFI < 1 || t.TRFC < 0 || t.TRFC >= t.TREFI) {
		return fmt.Errorf("pim: invalid refresh timing tREFI=%d tRFC=%d", t.TREFI, t.TRFC)
	}
	return nil
}

// BufElems returns the number of fp16 elements one global buffer holds.
func (c Config) BufElems() int { return c.GlobalBufBytes / 2 }

// LanesPerChannel returns the output lanes computed in parallel per
// channel: one output per bank.
func (c Config) LanesPerChannel() int { return c.BanksPerChannel }

// CyclesToSeconds converts a cycle count to seconds.
func (c Config) CyclesToSeconds(cycles int64) float64 {
	return float64(cycles) / (c.ClockGHz * 1e9)
}
