package verify

import (
	"fmt"

	"pimflow/internal/codegen"
	"pimflow/internal/pim"
)

// ReferenceTrace and ReferenceWorkload are the stored-trace linter kept
// as a test-only reference for the streaming one: materialize the trace
// with codegen.Generate, walk each stored channel with its own state
// machine, then tally the TR-COVER volumes with pim.CountOf. The
// differential tests assert that Trace and Workload return exactly the
// same diagnostics.
func ReferenceTrace(tr *pim.Trace, cfg pim.Config) []Diagnostic {
	if tr == nil || len(tr.Channels) == 0 {
		return []Diagnostic{{Rule: RuleTraceEmpty, Channel: -1, Index: -1,
			Msg: "trace has no channel streams"}}
	}
	var diags []Diagnostic
	seen := map[int]bool{}
	for _, ct := range tr.Channels {
		if ct.Channel < 0 || ct.Channel >= cfg.Channels {
			diags = append(diags, Diagnostic{Rule: RuleTraceChannel, Channel: ct.Channel, Index: -1,
				Msg: fmt.Sprintf("channel id outside configured 0..%d", cfg.Channels-1)})
		}
		if seen[ct.Channel] {
			diags = append(diags, Diagnostic{Rule: RuleTraceChannelDup, Channel: ct.Channel, Index: -1,
				Msg: "channel appears more than once in the trace"})
		}
		seen[ct.Channel] = true
		diags = append(diags, referenceLintChannel(ct, cfg)...)
	}
	return diags
}

func referenceLintChannel(ct pim.ChannelTrace, cfg pim.Config) []Diagnostic {
	var diags []Diagnostic
	bad := func(rule string, i int, cmd pim.Command, msg string) {
		diags = append(diags, Diagnostic{
			Rule: rule, Channel: ct.Channel, Index: i, Command: cmd.Kind.String(), Msg: msg,
		})
	}
	bufCapBursts := cfg.GlobalBufs * ceilDiv(cfg.GlobalBufBytes, cfg.BurstBytes)

	bufFilled := false
	rowOpen := false
	compsSinceGW := 0
	undrainedComps := 0
	lastUndrained := -1
	for i, cmd := range ct.Commands {
		switch {
		case cmd.Kind.IsGWrite():
			if cmd.Kind == pim.KindGWrite2 && cfg.GlobalBufs < 2 {
				bad(RuleTraceGWBufs, i, cmd, fmt.Sprintf("GWRITE_2 with %d configured buffer(s)", cfg.GlobalBufs))
			}
			if cmd.Kind == pim.KindGWrite4 && cfg.GlobalBufs < 4 {
				bad(RuleTraceGWBufs, i, cmd, fmt.Sprintf("GWRITE_4 with %d configured buffer(s)", cfg.GlobalBufs))
			}
			if cmd.Bursts < 1 {
				bad(RuleTraceBursts, i, cmd, fmt.Sprintf("GWRITE moves %d bursts, want >= 1", cmd.Bursts))
			} else if cmd.Bursts > bufCapBursts {
				bad(RuleTraceGWOverflow, i, cmd, fmt.Sprintf(
					"GWRITE of %d bursts overflows %d buffer(s) of %d bytes (%d bursts)",
					cmd.Bursts, cfg.GlobalBufs, cfg.GlobalBufBytes, bufCapBursts))
			}
			bufFilled = true
			compsSinceGW = 0
		case cmd.Kind == pim.KindGAct:
			rowOpen = true
		case cmd.Kind == pim.KindComp:
			if !bufFilled {
				bad(RuleTraceCompNoBuf, i, cmd, "COMP before any GWRITE filled the global buffer")
			}
			if !rowOpen {
				bad(RuleTraceCompNoAct, i, cmd, "COMP before any G_ACT opened a weight row")
			}
			if cmd.Cols < 1 || cmd.Cols > cfg.ColumnIOsPerRow {
				bad(RuleTraceCompCols, i, cmd, fmt.Sprintf(
					"COMP streams %d column I/Os, want 1..%d", cmd.Cols, cfg.ColumnIOsPerRow))
			}
			compsSinceGW++
			undrainedComps++
			lastUndrained = i
		case cmd.Kind == pim.KindReadRes:
			if compsSinceGW == 0 {
				bad(RuleTraceRRNoComp, i, cmd, "READRES with no COMP accumulated since the last buffer fill")
			}
			if cmd.Bursts < 1 {
				bad(RuleTraceBursts, i, cmd, fmt.Sprintf("READRES drains %d bursts, want >= 1", cmd.Bursts))
			}
			undrainedComps = 0
		default:
			bad(RuleTraceKind, i, cmd, fmt.Sprintf("unknown command kind %d", uint8(cmd.Kind)))
		}
	}
	if undrainedComps > 0 {
		diags = append(diags, Diagnostic{
			Rule: RuleTraceDrain, Channel: ct.Channel, Index: lastUndrained, Command: pim.KindComp.String(),
			Msg: fmt.Sprintf("channel ends with %d COMP command(s) never drained by a READRES", undrainedComps),
		})
	}
	return diags
}

// ReferenceWorkload is Workload over a materialized trace.
func ReferenceWorkload(w codegen.Workload, cfg pim.Config, opts codegen.Opts) []Diagnostic {
	w.Groups = 0
	tr, err := codegen.Generate(w, cfg, opts)
	if err != nil {
		return []Diagnostic{{Rule: RuleTraceCover, Channel: -1, Index: -1,
			Msg: fmt.Sprintf("trace generation failed: %v", err)}}
	}
	diags := ReferenceTrace(tr, cfg)

	var got pim.Counts
	for _, ct := range tr.Channels {
		got.Add(pim.CountOf(ct))
	}
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
