package codegen

import (
	"pimflow/internal/pim"
)

// This file implements the steady-state fast-forward used by
// TimeWorkload. A channel's command stream is periodic at two scales:
//
//   - Row level: within one (vector group, K-chunk), every interior
//     full-lane output group emits the same command subsequence (no
//     GWRITE — the buffer chunk is reused — then identical G_ACT/COMP
//     rows and READRES drains).
//   - Block level: every full vector group (nVecs == GlobalBufs) emits
//     the same block of commands across all its K-chunks and output
//     groups.
//
// pim.ChannelSim's recurrence is translation-invariant: every Feed rule
// computes maxima of absolute-time state fields plus constant offsets,
// and nothing references absolute cycle zero. So once two consecutive
// repetitions of an identical command block leave the channel in states
// related by one uniform time shift (pim.ShiftOf), every further
// repetition adds exactly that shift and the same busy/count deltas —
// pim.ChannelSim.Advance applies k of them in O(1), with results
// bit-identical to feeding every command. When no steady state appears,
// the walker simply feeds everything; correctness never depends on the
// detection firing.
//
// Across channels the stream repeats too: it depends only on the
// channel's unit window (plan.classOf), so TimeWorkload walks the first
// channel of each class and copies its results to the rest. A walk is
// translation-invariant in the window's start, which is what lets any
// channel of a class stand for all of them.

// ffFeeder drives one pim.ChannelSim with unit blocks, latching the
// first Feed error (matching the Sink error conventions).
type ffFeeder struct {
	cs  pim.ChannelSim
	err error
}

// Emit feeds a block of commands through the channel stepper.
func (f *ffFeeder) Emit(cmds []pim.Command) {
	if f.err != nil {
		return
	}
	for _, cmd := range cmds {
		if _, _, f.err = f.cs.Feed(cmd); f.err != nil {
			return
		}
	}
}

// feedRun feeds count repetitions of an identical command subsequence
// produced by gen, watching for a periodic steady state: once two
// consecutive repetitions leave the channel in uniformly shifted states,
// the remaining repetitions are applied in O(1). Returns how many
// repetitions were skipped (gen ran count-skipped times), so callers
// whose gen closure carries per-repetition state can resynchronize.
func (f *ffFeeder) feedRun(count int, gen func()) (skipped int) {
	var prev pim.Phase
	have := false
	for r := 0; r < count; r++ {
		if f.err != nil {
			return 0
		}
		gen()
		cur := f.cs.Phase()
		if have {
			if _, ok := pim.ShiftOf(prev, cur); ok {
				k := count - r - 1
				f.cs.Advance(int64(k), prev, cur)
				return k
			}
		}
		prev, have = cur, true
	}
	return 0
}

// feedInterior feeds count repetitions of one row-interior unit block —
// feedRun specialized to it, without a closure. Interior units emit no
// GWRITE (the buffered vectors are reused), so the GWRITE-free
// steady-state test applies — the plain uniform-shift test can never
// fire here, because the bus-in and buffer-ready times stay frozen.
func (f *ffFeeder) feedInterior(count int, cmds []pim.Command) {
	var prev pim.Phase
	for r := 0; r < count && f.err == nil; r++ {
		f.Emit(cmds)
		cur := f.cs.Phase()
		if r > 0 {
			if _, ok := pim.ShiftOfInterior(prev, cur); ok {
				f.cs.AdvanceInterior(int64(count-r-1), prev, cur)
				return
			}
		}
		prev = cur
	}
}

// channelWalker feeds one channel's unit schedule through an ffFeeder,
// row by row as Stream emits it, while compressing its two periodic
// structures.
type channelWalker struct {
	p *plan
	f *ffFeeder
	b *blocks
}

// feedRow feeds the units of row (vg, ks) at output groups ogLo,
// ogLo+step, ... below ogHi: the first with the chunk's GWRITE, then the
// interior run of identical full-lane units compressed, then a partial
// last output group.
func (cw *channelWalker) feedRow(vg, ks, ogLo, ogHi, step int) {
	p, b, f := cw.p, cw.b, cw.f
	nv, kl := p.rowShape(vg, ks)
	f.Emit(b.unit(nv, kl, p.outLanes(ogLo), true))
	mid := (ogHi-ogLo+step-1)/step - 1
	last := ogLo + mid*step
	partial := mid > 0 && p.outLanes(last) < p.lanes
	if partial {
		mid--
	}
	if mid > 0 {
		f.feedInterior(mid, b.unit(nv, kl, p.lanes, false))
	}
	if partial {
		f.Emit(b.unit(nv, kl, p.outLanes(last), false))
	}
}

// feedSpan feeds the global unit index range [iLo, iHi) of the
// contiguous schedule, row by row.
func (cw *channelWalker) feedSpan(iLo, iHi int) {
	p := cw.p
	for i := iLo; i < iHi && cw.f.err == nil; {
		og, row := i%p.nOutGroups, i/p.nOutGroups
		n := min(p.nOutGroups-og, iHi-i)
		cw.feedRow(row/p.nKChunks, row%p.nKChunks, og, og+n, 1)
		i += n
	}
}

// walkContig feeds channel ch of a contiguous (GranReadRes/GranComp)
// schedule: the head up to a vector-group boundary, then whole
// vector-group blocks under steady-state detection, then the tail.
func (cw *channelWalker) walkContig(ch int) {
	p := cw.p
	lo := ch * p.per
	hi := min(lo+p.per, p.nUnits)
	if lo >= hi {
		return
	}
	B := p.nKChunks * p.nOutGroups
	// Only full vector groups repeat identically; the last group is
	// smaller when M is not a multiple of the buffer count.
	fullEnd := p.nUnits
	if p.w.M%p.cfg.GlobalBufs != 0 {
		fullEnd = (p.nVecGroups - 1) * B
	}
	bLo := (lo + B - 1) / B * B
	nBlocks := max(min(hi, fullEnd)-bLo, 0) / B
	if nBlocks < 2 {
		// Too few whole blocks for block-level detection; row-level
		// compression still applies.
		cw.feedSpan(lo, hi)
		return
	}
	cw.feedSpan(lo, bLo)
	i := bLo
	skipped := cw.f.feedRun(nBlocks, func() {
		cw.feedSpan(i, i+B)
		i += B
	})
	cw.feedSpan(i+skipped*B, hi)
}

// walkGAct feeds channel ch of a GranGAct schedule (output groups
// assigned by og ≡ ch mod Channels), with the same two-scale
// compression.
func (cw *channelWalker) walkGAct(ch int) {
	p := cw.p
	if ch >= p.nOutGroups {
		return
	}
	feedBlock := func(vg int) {
		for ks := 0; ks < p.nKChunks; ks++ {
			cw.feedRow(vg, ks, ch, p.nOutGroups, p.cfg.Channels)
		}
	}
	nFull := p.nVecGroups
	if p.w.M%p.cfg.GlobalBufs != 0 {
		nFull--
	}
	vg := 0
	if nFull >= 2 {
		skipped := cw.f.feedRun(nFull, func() { feedBlock(vg); vg++ })
		vg += skipped
	}
	for ; vg < p.nVecGroups; vg++ {
		feedBlock(vg)
	}
}

// walk feeds the channel's full schedule.
func (cw *channelWalker) walk(ch int) {
	if cw.p.per == 0 {
		cw.walkGAct(ch)
		return
	}
	cw.walkContig(ch)
}
