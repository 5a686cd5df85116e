package verify

import (
	"fmt"
	"slices"

	"pimflow/internal/codegen"
	"pimflow/internal/pim"
)

// Trace lints a stored PIM command trace against the Newton/AiM protocol
// (paper §4.1) by replaying it through the same streaming linter
// Workload drives during generation, so the protocol rules have exactly
// one implementation. Each channel's stream is walked as a state machine:
//
//   - a GWRITE variant must fill the global buffer before any COMP
//     consumes it, and must fit the channel's buffer capacity;
//   - a G_ACT must open a weight row before any COMP streams column I/Os
//     (G_ACT before GWRITE is legal — that is the §4.1 latency-hiding
//     overlap);
//   - READRES drains result latches, so it needs at least one COMP since
//     the buffer was last filled, and every COMP must eventually be
//     drained before the channel ends.
//
// Each violation carries the channel, command index, and command kind.
// Each stored channel reaches the linter as one block.
//
// Only tests call Trace: verify's rule tests lint forged traces with it,
// and codegen's streaming tests lint the traces Generate materializes.
func Trace(tr *pim.Trace, cfg pim.Config) []Diagnostic {
	l := newLinter(cfg)
	if tr != nil {
		for _, ct := range tr.Channels {
			l.BeginChannel(ct.Channel)
			l.Emit(ct.Commands)
		}
	}
	return l.finish()
}

// linter is the TR-* protocol state machine as a pim.Sink. It keeps O(1)
// state per channel, never stores a command, and allocates only when it
// records a violation, so a stream is linted as it is generated. It also
// tallies the command volumes TR-COVER checks.
type linter struct {
	cfg     pim.Config
	diags   []Diagnostic
	got     pim.Counts // only GWBursts, ColIOs, ReadRes and RRBursts
	began   int        // channel streams begun
	seen    []bool     // configured channel ids already begun
	outside []int      // ids outside the configuration already begun

	// The open channel's state.
	ch             int
	bufCapBursts   int  // one GWRITE may fill every buffer, in whole bursts
	next           int  // index of the channel's next command
	bufFilled      bool // some GWRITE variant has loaded the global buffer
	rowOpen        bool // some G_ACT has activated a weight row
	compsSinceGW   int  // COMP commands since the last buffer (re)fill
	undrainedComps int  // COMP commands since the last READRES
	lastUndrained  int  // index of the newest undrained COMP
}

func newLinter(cfg pim.Config) *linter {
	return &linter{cfg: cfg, seen: make([]bool, max(cfg.Channels, 0))}
}

// BeginChannel closes the channel in flight and opens channel ch.
func (l *linter) BeginChannel(ch int) {
	l.endChannel()
	l.began++
	cfg := &l.cfg
	var dup bool
	if ch < 0 || ch >= cfg.Channels {
		l.diags = append(l.diags, Diagnostic{Rule: RuleTraceChannel, Channel: ch, Index: -1,
			Msg: fmt.Sprintf("channel id outside configured 0..%d", cfg.Channels-1)})
		dup = slices.Contains(l.outside, ch)
		l.outside = append(l.outside, ch)
	} else {
		dup, l.seen[ch] = l.seen[ch], true
	}
	if dup {
		l.diags = append(l.diags, Diagnostic{Rule: RuleTraceChannelDup, Channel: ch, Index: -1,
			Msg: "channel appears more than once in the trace"})
	}
	l.ch = ch
	l.bufCapBursts = cfg.GlobalBufs * ceilDiv(cfg.GlobalBufBytes, cfg.BurstBytes)
	l.next, l.bufFilled, l.rowOpen, l.compsSinceGW = 0, false, false, 0
}

// Emit lints a block of the open channel's commands. lintClean walks the
// block with the state machine in local variables until a command breaks
// a rule; that command goes to lintOne, which reports it, and the walk
// resumes after it from the state lintOne leaves.
func (l *linter) Emit(cmds []pim.Command) {
	for len(cmds) > 0 {
		n := l.lintClean(cmds)
		if n == len(cmds) {
			return
		}
		l.lintOne(cmds[n])
		cmds = cmds[n+1:]
	}
}

// lintClean advances the open channel's state machine over the longest
// prefix of cmds that breaks no rule and returns its length. The loop
// calls nothing: each command costs one switch on its kind, the
// comparisons of its rules and the updates lintOne would make, so the
// state and the TR-COVER tallies end exactly as lintOne leaves them.
func (l *linter) lintClean(cmds []pim.Command) int {
	var (
		maxCols            = l.cfg.ColumnIOsPerRow
		bufFilled, rowOpen = l.bufFilled, l.rowOpen
		sinceGW, undrained = l.compsSinceGW, l.undrainedComps
		gwBursts, colIOs   int64
		readRes, rrBursts  int64
	)
	n := 0
walk:
	for ; n < len(cmds); n++ {
		c := &cmds[n]
		switch c.Kind {
		case pim.KindComp:
			if !bufFilled || !rowOpen || c.Cols < 1 || c.Cols > maxCols {
				break walk
			}
			sinceGW++
			undrained++
			colIOs += int64(c.Cols)
		case pim.KindGAct:
			rowOpen = true
		case pim.KindReadRes:
			if sinceGW == 0 || c.Bursts < 1 {
				break walk
			}
			undrained = 0
			readRes++
			rrBursts += int64(c.Bursts)
		case pim.KindGWrite, pim.KindGWrite2, pim.KindGWrite4, pim.KindGWriteStrided:
			if c.Bursts < 1 || c.Bursts > l.bufCapBursts ||
				c.Kind == pim.KindGWrite2 && l.cfg.GlobalBufs < 2 || c.Kind == pim.KindGWrite4 && l.cfg.GlobalBufs < 4 {
				break walk
			}
			bufFilled = true
			sinceGW = 0
			gwBursts += int64(c.Bursts)
		default:
			break walk
		}
	}
	if undrained > 0 {
		// The newest COMP of the prefix, if any, is the newest undrained
		// one: no READRES follows it.
		for i := n - 1; i >= 0; i-- {
			if cmds[i].Kind == pim.KindComp {
				l.lastUndrained = l.next + i
				break
			}
		}
	}
	l.next += n
	l.bufFilled, l.rowOpen = bufFilled, rowOpen
	l.compsSinceGW, l.undrainedComps = sinceGW, undrained
	l.got.GWBursts += gwBursts
	l.got.ColIOs += colIOs
	l.got.ReadRes += readRes
	l.got.RRBursts += rrBursts
	return n
}

// lintOne advances the open channel's state machine by one command and
// reports every rule it breaks.
func (l *linter) lintOne(cmd pim.Command) {
	i := l.next
	l.next++
	cfg := &l.cfg
	switch cmd.Kind {
	case pim.KindGWrite, pim.KindGWrite2, pim.KindGWrite4, pim.KindGWriteStrided:
		if cmd.Kind == pim.KindGWrite2 && cfg.GlobalBufs < 2 {
			l.bad(RuleTraceGWBufs, i, cmd, fmt.Sprintf("GWRITE_2 with %d configured buffer(s)", cfg.GlobalBufs))
		}
		if cmd.Kind == pim.KindGWrite4 && cfg.GlobalBufs < 4 {
			l.bad(RuleTraceGWBufs, i, cmd, fmt.Sprintf("GWRITE_4 with %d configured buffer(s)", cfg.GlobalBufs))
		}
		if cmd.Bursts < 1 {
			l.bad(RuleTraceBursts, i, cmd, fmt.Sprintf("GWRITE moves %d bursts, want >= 1", cmd.Bursts))
		} else if cmd.Bursts > l.bufCapBursts {
			l.bad(RuleTraceGWOverflow, i, cmd, fmt.Sprintf(
				"GWRITE of %d bursts overflows %d buffer(s) of %d bytes (%d bursts)",
				cmd.Bursts, cfg.GlobalBufs, cfg.GlobalBufBytes, l.bufCapBursts))
		}
		l.bufFilled = true
		l.compsSinceGW = 0
		l.got.GWBursts += int64(cmd.Bursts)
	case pim.KindGAct:
		l.rowOpen = true
	case pim.KindComp:
		if !l.bufFilled {
			l.bad(RuleTraceCompNoBuf, i, cmd, "COMP before any GWRITE filled the global buffer")
		}
		if !l.rowOpen {
			l.bad(RuleTraceCompNoAct, i, cmd, "COMP before any G_ACT opened a weight row")
		}
		if cmd.Cols < 1 || cmd.Cols > cfg.ColumnIOsPerRow {
			l.bad(RuleTraceCompCols, i, cmd, fmt.Sprintf(
				"COMP streams %d column I/Os, want 1..%d", cmd.Cols, cfg.ColumnIOsPerRow))
		}
		l.compsSinceGW++
		l.undrainedComps++
		l.lastUndrained = i
		l.got.ColIOs += int64(cmd.Cols)
	case pim.KindReadRes:
		if l.compsSinceGW == 0 {
			l.bad(RuleTraceRRNoComp, i, cmd, "READRES with no COMP accumulated since the last buffer fill")
		}
		if cmd.Bursts < 1 {
			l.bad(RuleTraceBursts, i, cmd, fmt.Sprintf("READRES drains %d bursts, want >= 1", cmd.Bursts))
		}
		l.undrainedComps = 0
		l.got.ReadRes++
		l.got.RRBursts += int64(cmd.Bursts)
	default:
		l.bad(RuleTraceKind, i, cmd, fmt.Sprintf("unknown command kind %d", uint8(cmd.Kind)))
	}
}

// bad records a violation by command i of the open channel.
func (l *linter) bad(rule string, i int, cmd pim.Command, msg string) {
	l.diags = append(l.diags, Diagnostic{
		Rule: rule, Channel: l.ch, Index: i, Command: cmd.Kind.String(), Msg: msg,
	})
}

// endChannel closes the channel in flight, flagging undrained COMPs, and
// leaves no COMP undrained for the next channel.
func (l *linter) endChannel() {
	if l.undrainedComps == 0 {
		return
	}
	l.diags = append(l.diags, Diagnostic{
		Rule: RuleTraceDrain, Channel: l.ch, Index: l.lastUndrained, Command: pim.KindComp.String(),
		Msg: fmt.Sprintf("channel ends with %d COMP command(s) never drained by a READRES", l.undrainedComps),
	})
	l.undrainedComps = 0
}

// finish closes the stream and returns every violation in stream order.
func (l *linter) finish() []Diagnostic {
	if l.began == 0 {
		return []Diagnostic{{Rule: RuleTraceEmpty, Channel: -1, Index: -1,
			Msg: "trace has no channel streams"}}
	}
	l.endChannel()
	return l.diags
}

// totals is the workload-coverage oracle: the command volumes any correct
// per-channel distribution must produce, computed from the workload
// arithmetic independently of codegen's scheduler.
type totals struct {
	colIOs   int64 // total column I/Os across all COMPs
	readRes  int64 // total READRES commands
	rrBursts int64 // total READRES data bursts
	gwMin    int64 // lower bound on GWRITE bursts (each chunk loaded once)
}

// expectedTotals mirrors the workload decomposition (paper §4.3.1, Fig 6)
// from first principles: M input vectors in groups of GlobalBufs, N
// outputs in groups of one lane per bank, K in chunks bounded by the
// global-buffer capacity (or one row activation at COMP granularity when
// the unit count cannot occupy every channel). It deliberately does not
// call into codegen's scheduler, so scheduler bugs that drop or duplicate
// work show up as a mismatch.
func expectedTotals(w codegen.Workload, cfg pim.Config, opts codegen.Opts) totals {
	nb := cfg.GlobalBufs
	lanes := cfg.LanesPerChannel()
	elemsPerColIO := cfg.ColumnIOBytes / 2
	kPerAct := cfg.ColumnIOsPerRow * elemsPerColIO
	kChunkLen := cfg.BufElems()
	if opts.Granularity == codegen.GranComp && w.K > kPerAct &&
		ceilDiv(w.M, nb)*ceilDiv(w.N, lanes) < cfg.Channels {
		kChunkLen = kPerAct
	}
	if kChunkLen > w.K {
		kChunkLen = w.K
	}

	var nKChunks, colIOsPerVec int64
	for ks := 0; ks < w.K; ks += kChunkLen {
		kl := kChunkLen
		if ks+kl > w.K {
			kl = w.K - ks
		}
		nKChunks++
		colIOsPerVec += int64(ceilDiv(kl, elemsPerColIO))
	}

	nOutGroups := ceilDiv(w.N, lanes)
	rrBurstsOf := func(outLanes int) int64 {
		b := ceilDiv(outLanes*4, cfg.BurstBytes)
		if b < 1 {
			b = 1
		}
		return int64(b)
	}
	var perVecRRBursts int64
	for og := 0; og < nOutGroups; og++ {
		ol := lanes
		if (og+1)*lanes > w.N {
			ol = w.N - og*lanes
		}
		perVecRRBursts += rrBurstsOf(ol)
	}

	var gwMin int64
	for vg := 0; vg < ceilDiv(w.M, nb); vg++ {
		nv := nb
		if (vg+1)*nb > w.M {
			nv = w.M - vg*nb
		}
		for ks := 0; ks < w.K; ks += kChunkLen {
			kl := kChunkLen
			if ks+kl > w.K {
				kl = w.K - ks
			}
			gwMin += int64(nv * ceilDiv(kl*2, cfg.BurstBytes))
		}
	}

	return totals{
		colIOs:   int64(w.M) * int64(nOutGroups) * colIOsPerVec,
		readRes:  int64(w.M) * int64(nOutGroups) * nKChunks,
		rrBursts: int64(w.M) * nKChunks * perVecRRBursts,
		gwMin:    gwMin,
	}
}

// Workload verifies one PIM workload's command stream end to end as
// codegen.Units generates it (Stream's blocks): the per-channel protocol
// rules (the linter Trace replays stored traces through) plus workload
// coverage (TR-COVER) — the distributed command volumes must add up to
// what the workload requires, computed by an independent oracle. No trace
// is stored, so the cost is one pass over the commands and the memory
// does not grow with them. Grouped workloads verify one group's stream;
// the groups are identical.
func Workload(w codegen.Workload, cfg pim.Config, opts codegen.Opts) []Diagnostic {
	w.Groups = 0
	// The linter is concrete, so the blocks stay in this stack buffer.
	var stack [codegen.BlockStack]pim.Command
	u, err := codegen.NewUnits(w, cfg, opts, stack[:0])
	if err != nil {
		return []Diagnostic{{Rule: RuleTraceCover, Channel: -1, Index: -1,
			Msg: fmt.Sprintf("trace generation failed: %v", err)}}
	}
	l := newLinter(cfg)
	for ch, ok := u.NextChannel(); ok; ch, ok = u.NextChannel() {
		l.BeginChannel(ch)
		for cmds, ok := u.Next(); ok; cmds, ok = u.Next() {
			l.Emit(cmds)
		}
	}
	diags := l.finish()

	got := l.got
	want := expectedTotals(w, cfg, opts)
	cover := func(msg string) {
		diags = append(diags, Diagnostic{Rule: RuleTraceCover, Channel: -1, Index: -1, Msg: msg})
	}
	if got.ColIOs != want.colIOs {
		cover(fmt.Sprintf("trace streams %d column I/Os, workload %+v needs %d", got.ColIOs, w, want.colIOs))
	}
	if got.ReadRes != want.readRes {
		cover(fmt.Sprintf("trace drains %d READRES commands, workload %+v needs %d", got.ReadRes, w, want.readRes))
	}
	if got.RRBursts != want.rrBursts {
		cover(fmt.Sprintf("trace drains %d result bursts, workload %+v needs %d", got.RRBursts, w, want.rrBursts))
	}
	if got.GWBursts < want.gwMin {
		cover(fmt.Sprintf("trace writes %d input bursts, workload %+v needs at least %d", got.GWBursts, w, want.gwMin))
	}
	return diags
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
