package codegen

import (
	"pimflow/internal/graph"
	"pimflow/internal/pim"
)

// The per-command emitters Stream's unit blocks replaced, kept as the
// reference they are checked against: walk each channel's units with
// forEachUnit, GWRITE a unit's K-chunk unless the channel's previous unit
// loaded the same one, and emit every command on its own.

// unit is one schedulable chunk of work: a (vector group, output group,
// K-chunk) triple. K-chunks are only split at GranComp.
type unit struct {
	vecGroup int // index of the nb-vector group
	nVecs    int // vectors in this group (<= nb)
	ogIndex  int // output-group index
	outLanes int // outputs in this group (<= banks)
	kStart   int // start of the K range
	kLen     int // length of the K range
}

// makeUnit builds the unit at coordinates (vg, ksIdx, og).
func (p *plan) makeUnit(vg, ksIdx, og int) unit {
	nv, kl := p.rowShape(vg, ksIdx)
	return unit{vecGroup: vg, nVecs: nv, ogIndex: og, outLanes: p.outLanes(og),
		kStart: ksIdx * p.kChunkLen, kLen: kl}
}

// forEachUnit walks channel ch's units in schedule order. The iteration
// is closed-form — no unit slice exists — so a streaming caller touches
// O(1) memory per unit.
func (p *plan) forEachUnit(ch int, fn func(unit)) {
	if p.per == 0 {
		// GranGAct: partition along output groups only (ogIndex mod
		// channels); every channel owning an output group processes all
		// vector groups for it, in global unit order.
		for vg := 0; vg < p.nVecGroups; vg++ {
			for ks := 0; ks < p.nKChunks; ks++ {
				for og := ch; og < p.nOutGroups; og += p.cfg.Channels {
					fn(p.makeUnit(vg, ks, og))
				}
			}
		}
		return
	}
	lo := ch * p.per
	hi := lo + p.per
	if hi > p.nUnits {
		hi = p.nUnits
	}
	if lo >= hi {
		return
	}
	og := lo % p.nOutGroups
	rest := lo / p.nOutGroups
	ks := rest % p.nKChunks
	vg := rest / p.nKChunks
	for i := lo; i < hi; i++ {
		fn(p.makeUnit(vg, ks, og))
		if og++; og == p.nOutGroups {
			og = 0
			if ks++; ks == p.nKChunks {
				ks = 0
				vg++
			}
		}
	}
}

// ReferenceEmitter generates a workload's channel streams with the
// per-command emitters, one channel at a time.
type ReferenceEmitter struct{ p plan }

// NewReferenceEmitter plans the workload as Stream does.
func NewReferenceEmitter(w Workload, cfg pim.Config, opts Opts) (*ReferenceEmitter, error) {
	p, err := newPlan(w, cfg, opts)
	if err != nil {
		return nil, err
	}
	return &ReferenceEmitter{p: p}, nil
}

// Channels lists the channels that own units, in stream order.
func (r *ReferenceEmitter) Channels() []int {
	var chs []int
	for ch := 0; ch < r.p.cfg.Channels; ch++ {
		if r.p.channelUnits(ch) > 0 {
			chs = append(chs, ch)
		}
	}
	return chs
}

// Class returns the first channel of channel ch's class: the channel
// whose timing TimeWorkload copies to ch.
func (r *ReferenceEmitter) Class(ch int) int { return r.p.classOf(ch) }

// Channel appends channel ch's commands to cmds and the index in them
// where each unit starts to starts.
func (r *ReferenceEmitter) Channel(ch int, cmds []pim.Command, starts []int) ([]pim.Command, []int) {
	sink := cmdList(cmds)
	lastVecGroup, lastKStart := -1, -1
	r.p.forEachUnit(ch, func(u unit) {
		gw := u.vecGroup != lastVecGroup || u.kStart != lastKStart
		if gw {
			lastVecGroup, lastKStart = u.vecGroup, u.kStart
		}
		starts = append(starts, len(sink))
		emitUnit(&sink, &r.p, u, gw)
	})
	return sink, starts
}

// cmdList collects commands one at a time.
type cmdList []pim.Command

func (l *cmdList) Emit(cmd pim.Command) { *l = append(*l, cmd) }

// emitUnit emits one unit's command subsequence: the buffer load (when
// gw), the G_ACT/COMP rows over its K-chunk, and the READRES drains.
func emitUnit(sink *cmdList, p *plan, u unit, gw bool) {
	cfg := &p.cfg
	if gw {
		emitGWrite(sink, p.w, p.cfg, p.opts, u)
	}
	// Activate rows and stream COMPs over this K-chunk.
	colIOs := ceilDiv(u.kLen, cfg.ColumnIOBytes/2)
	for done := 0; done < colIOs; {
		cols := cfg.ColumnIOsPerRow
		if done+cols > colIOs {
			cols = colIOs - done
		}
		sink.Emit(pim.Command{Kind: pim.KindGAct, NewRow: true})
		for v := 0; v < u.nVecs; v++ {
			sink.Emit(pim.Command{Kind: pim.KindComp, Cols: cols})
		}
		done += cols
	}
	// Drain results: one READRES per vector. Partial K-chunks
	// (GranComp splits) also drain so the GPU can merge partial
	// sums — the merge cost is the extra READRES traffic.
	resBursts := ceilDiv(u.outLanes*4, cfg.BurstBytes)
	if resBursts < 1 {
		resBursts = 1
	}
	for v := 0; v < u.nVecs; v++ {
		sink.Emit(pim.Command{Kind: pim.KindReadRes, Bursts: resBursts})
	}
}

// emitGWrite emits the GWRITE command(s) that load one vector group's
// K-chunk into the channel's global buffers.
func emitGWrite(sink *cmdList, w Workload, cfg pim.Config, opts Opts, u unit) {
	kind := pim.KindGWrite
	switch cfg.GlobalBufs {
	case 2:
		kind = pim.KindGWrite2
	case 4:
		kind = pim.KindGWrite4
	}
	segments := w.Segments
	if opts.StridedGWrite || segments < 1 {
		segments = 1
		if w.Segments > 1 {
			kind = pim.KindGWriteStrided
		}
	}
	if segments == 1 {
		bursts := u.nVecs * ceilDiv(u.kLen*2, cfg.BurstBytes)
		sink.Emit(pim.Command{Kind: kind, Bursts: bursts})
		return
	}
	// Without strided GWRITE each contiguous segment needs its own
	// command, and each segment's transfer rounds up to whole bursts.
	segLen := ceilDiv(u.kLen, segments)
	remaining := u.kLen
	for s := 0; s < segments && remaining > 0; s++ {
		l := segLen
		if l > remaining {
			l = remaining
		}
		bursts := u.nVecs * ceilDiv(l*2, cfg.BurstBytes)
		sink.Emit(pim.Command{Kind: kind, Bursts: bursts})
		remaining -= l
	}
}

// TimeNode generates and simulates the PIM trace for a whole node; only
// the tests time a node through its workload in one call.
func TimeNode(g *graph.Graph, n *graph.Node, cfg pim.Config, opts Opts) (pim.Stats, error) {
	w, err := NodeWorkload(g, n)
	if err != nil {
		return pim.Stats{}, err
	}
	return TimeWorkload(w, cfg, opts)
}
