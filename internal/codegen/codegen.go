// Package codegen generates DRAM-PIM command traces for PIM-offloaded
// layers (paper §4.3.1). A lowered convolution or FC layer is an
// [M x K] x [K x N] matrix multiplication executed as M iterated
// matrix-vector products: the K-element input vector is GWRITten into a
// channel's global buffer, weight rows are activated with G_ACT, COMP
// streams column I/Os through the per-bank MAC trees (one output lane per
// bank), and READRES drains the accumulated results.
//
// The command scheduling pass distributes commands across PIM channels at
// G_ACT, READRES, or COMP granularity (Fig 6), progressively increasing
// channel-level parallelism for small matrices. The command optimizations
// of §4.1 — multiple global buffers (GWRITE_2/GWRITE_4 with G_ACT reuse)
// and strided GWRITE — are applied according to the PIM configuration.
//
// A unit (one vector group against one output group over one K-chunk)
// is what the generator emits: blocks builds each unit's commands into
// one reused buffer, rebuilding a part only when its shape changes, and
// hands the whole block to its consumer at once. Stream passes the
// blocks to a pim.Sink, so the verify linter lints the stream without it
// ever being materialized, while Generate materializes a pim.Trace for
// the consumers that genuinely need one (dump listings, event
// recording). Timing probes (TimeWorkload) feed the same blocks straight
// into a pim.ChannelSim, fast-forwarding its periodic steady state
// (ffsim.go), and walk one channel per channel class: channels whose
// unit windows have the same shape emit the same stream, so they share
// one walk's drain, busy cycles and counts. Stream shares nothing between
// channels: the verify gate still checks every command.
package codegen

import (
	"fmt"
	"log/slog"

	"pimflow/internal/obs"
	"pimflow/internal/pim"
)

// Granularity selects how the scheduling pass distributes PIM commands
// across channels (Fig 6).
type Granularity int

const (
	// GranGAct parallelizes across output groups only: each channel owns a
	// disjoint set of 16-output groups (weight partitions along N) and
	// processes every input vector for them.
	GranGAct Granularity = iota
	// GranReadRes additionally parallelizes across input vectors: units of
	// (vector group, output group) are distributed round-robin.
	GranReadRes
	// GranComp additionally splits the K dimension across channels at
	// row-activation granularity, merging partial sums with extra READRES
	// commands. Best channel balance for small matrices.
	GranComp
)

func (g Granularity) String() string {
	switch g {
	case GranGAct:
		return "G_ACT"
	case GranReadRes:
		return "READRES"
	case GranComp:
		return "COMP"
	default:
		return fmt.Sprintf("Granularity(%d)", int(g))
	}
}

// Workload describes one PIM-offloaded GEMM: M input vectors of length K
// against a [K x N] weight matrix. Segments is the number of contiguous
// memory segments each input vector gathers from (1 for FC and pointwise
// conv; KH for a KHxKW conv patch in NHWC layout). Groups is the grouped-
// convolution multiplicity: the M/K/N dims describe ONE group's GEMM
// (lower.ConvLowering's per-group convention) and the full layer executes
// Groups such GEMMs back to back. Zero means 1, so plain workload
// literals keep working.
type Workload struct {
	M, K, N  int
	Segments int
	Groups   int `json:",omitempty"`
}

// GroupCount returns the grouped-GEMM multiplicity, treating the zero
// value as 1.
func (w Workload) GroupCount() int {
	if w.Groups < 1 {
		return 1
	}
	return w.Groups
}

// Validate checks the workload.
func (w Workload) Validate() error {
	if w.M < 1 || w.K < 1 || w.N < 1 {
		return fmt.Errorf("codegen: non-positive workload %+v", w)
	}
	if w.Segments < 1 {
		return fmt.Errorf("codegen: Segments %d < 1", w.Segments)
	}
	return nil
}

// Opts controls trace generation.
type Opts struct {
	// Granularity is the command scheduling granularity (Fig 6).
	Granularity Granularity
	// StridedGWrite enables the strided GWRITE extension (§4.1): a
	// multi-segment input vector transfers with one command instead of one
	// per segment, avoiding per-segment burst padding.
	StridedGWrite bool
}

// DefaultOpts returns the full PIMFlow feature set.
func DefaultOpts() Opts {
	return Opts{Granularity: GranComp, StridedGWrite: true}
}

// plan is the workload's unit decomposition and channel assignment in
// closed form: every quantity a unit needs is computable from its
// (vector group, K-chunk, output group) coordinates, so the schedule can
// be walked without materializing a unit slice. Unit order is vector
// group -> K-chunk -> output group, so that all output groups sharing one
// buffered K-chunk are consecutive and the channel reuses a single GWRITE
// across them.
type plan struct {
	w    Workload
	cfg  pim.Config
	opts Opts

	lanes      int // outputs per output group, cfg.LanesPerChannel()
	kChunkLen  int
	nVecGroups int
	nKChunks   int
	nOutGroups int
	nUnits     int
	// per is the contiguous unit-run length per channel at GranReadRes and
	// GranComp; 0 marks the GranGAct modulo assignment.
	per int
}

// newPlan validates the inputs and computes the unit decomposition.
func newPlan(w Workload, cfg pim.Config, opts Opts) (plan, error) {
	if err := w.Validate(); err != nil {
		return plan{}, err
	}
	if err := cfg.Validate(); err != nil {
		return plan{}, err
	}
	nb := cfg.GlobalBufs
	lanes := cfg.LanesPerChannel()
	elemsPerColIO := cfg.ColumnIOBytes / 2
	kPerAct := cfg.ColumnIOsPerRow * elemsPerColIO
	bufCap := cfg.BufElems()

	// Decompose K into chunks: always at most the buffer capacity. At
	// GranComp granularity, when there are too few (vector group, output
	// group) units to occupy every channel, split K at row-activation
	// boundaries too so the work can spread (partial sums merge via extra
	// READRES traffic).
	kChunkLen := bufCap
	if opts.Granularity == GranComp && w.K > kPerAct &&
		ceilDiv(w.M, nb)*ceilDiv(w.N, lanes) < cfg.Channels {
		kChunkLen = kPerAct
	}
	if kChunkLen > w.K {
		kChunkLen = w.K
	}

	p := plan{
		w: w, cfg: cfg, opts: opts,
		lanes:      lanes,
		kChunkLen:  kChunkLen,
		nVecGroups: ceilDiv(w.M, nb),
		nKChunks:   ceilDiv(w.K, kChunkLen),
		nOutGroups: ceilDiv(w.N, lanes),
	}
	p.nUnits = p.nVecGroups * p.nKChunks * p.nOutGroups
	switch opts.Granularity {
	case GranGAct:
		p.per = 0
	case GranReadRes, GranComp:
		// Contiguous equal chunking: slicing the ordered unit sequence into
		// equal contiguous runs balances channel loads while keeping the
		// units that share one GWRITEd buffer chunk on the same channel (at
		// most one run boundary splits a chunk's output groups).
		p.per = ceilDiv(p.nUnits, cfg.Channels)
	default:
		return plan{}, fmt.Errorf("codegen: unknown granularity %d", opts.Granularity)
	}
	return p, nil
}

// rowShape returns the vector count and K-chunk length shared by every
// unit of row (vg, ks), the units of vector group vg over K-chunk ks.
func (p *plan) rowShape(vg, ks int) (nVecs, kLen int) {
	nb := p.cfg.GlobalBufs
	return min(nb, p.w.M-vg*nb), min(p.kChunkLen, p.w.K-ks*p.kChunkLen)
}

// outLanes returns the outputs of output group og: a full lane per bank,
// fewer in a partial last group.
func (p *plan) outLanes(og int) int {
	return min(p.lanes, p.w.N-og*p.lanes)
}

// channelUnits reports how many units channel ch owns.
func (p *plan) channelUnits(ch int) int {
	if p.per == 0 {
		if ch >= p.nOutGroups {
			return 0
		}
		nOgs := (p.nOutGroups - ch + p.cfg.Channels - 1) / p.cfg.Channels
		return p.nVecGroups * p.nKChunks * nOgs
	}
	lo := ch * p.per
	hi := lo + p.per
	if hi > p.nUnits {
		hi = p.nUnits
	}
	if lo >= hi {
		return 0
	}
	return hi - lo
}

// classOf returns the first channel of channel ch's class, ch owning
// units: channels whose unit windows have the same shape emit the same
// stream, and so time identically (pim.ChannelSim reads the channel id
// only to format errors).
func (p *plan) classOf(ch int) int {
	if p.per == 0 {
		// GranGAct: the shape is how many output groups the channel owns
		// and whether it owns the partial last one.
		C := p.cfg.Channels
		switch r := p.nOutGroups % C; {
		case p.w.N%p.lanes != 0 && ch == (p.nOutGroups-1)%C:
			return ch
		case ch >= r:
			return r
		}
		return 0
	}
	// A contiguous window [lo, hi): the shape is lo mod B (the units of
	// one vector group), hi-lo, and the partial last vector group's start
	// relative to lo. So only full windows below that group share classes,
	// and their lo mod B repeats with period B/gcd(per, B).
	B := p.nKChunks * p.nOutGroups
	lo := ch * p.per
	hi := min(lo+p.per, p.nUnits)
	if hi-lo < p.per || p.w.M%p.cfg.GlobalBufs != 0 && hi > (p.nVecGroups-1)*B {
		return ch
	}
	a, b := p.per, B
	for b != 0 {
		a, b = b, a%b
	}
	return ch % (B / a)
}

// Stream emits the workload's per-channel command streams into sink in
// channel order, one Emit per unit, fusing generation with consumption:
// the sink sees every command without the trace ever existing. Its unit
// blocks come from Units, and channels with no assigned units are
// skipped, matching the materialized trace layout exactly. The blocks
// escape through the sink, so Stream allocates their buffer; a consumer
// of a concrete type drains Units itself over a buffer on its stack.
func Stream(w Workload, cfg pim.Config, opts Opts, sink pim.Sink) error {
	u, err := NewUnits(w, cfg, opts, nil)
	if err != nil {
		return err
	}
	for ch, ok := u.NextChannel(); ok; ch, ok = u.NextChannel() {
		sink.BeginChannel(ch)
		for cmds, ok := u.Next(); ok; cmds, ok = u.Next() {
			sink.Emit(cmds)
		}
	}
	return nil
}

// Units walks a workload's unit command blocks in stream order: channel
// by channel, each (vector group, K-chunk) row of a channel's schedule in
// turn, the row's first unit leading with the GWRITE that loads the
// chunk and the others reusing the buffered vectors.
type Units struct {
	p plan
	b blocks

	ch      int // the open channel, -1 before the first
	at, end int // the channel's next row: (vg, ks) index, or unit index when p.per > 0

	// The open row: its shape, its next output group, its first and end
	// groups and the stride between them.
	nv, kl, og, ogLo, ogHi, step int
}

// NewUnits plans the workload and builds its blocks in buf when buf is
// large enough (BlockStack commands suffice for the built-in PIM
// geometries), else in a buffer of its own.
func NewUnits(w Workload, cfg pim.Config, opts Opts, buf []pim.Command) (Units, error) {
	p, err := newPlan(w, cfg, opts)
	if err != nil {
		return Units{}, err
	}
	return Units{p: p, b: newBlocks(&p, buf), ch: -1}, nil
}

// NextChannel opens the next channel with units, or returns false after
// the last.
func (u *Units) NextChannel() (int, bool) {
	p := &u.p
	for u.ch++; u.ch < p.cfg.Channels; u.ch++ {
		if p.channelUnits(u.ch) == 0 {
			continue
		}
		if p.per == 0 {
			u.at, u.end = 0, p.nVecGroups*p.nKChunks
		} else {
			u.at, u.end = u.ch*p.per, min((u.ch+1)*p.per, p.nUnits)
		}
		u.og, u.ogHi = 0, 0
		return u.ch, true
	}
	return 0, false
}

// Next returns the open channel's next unit block, or false after its
// last. The block is valid until the next call.
func (u *Units) Next() ([]pim.Command, bool) {
	if u.og >= u.ogHi {
		if u.at >= u.end {
			return nil, false
		}
		u.openRow()
	}
	og := u.og
	u.og += u.step
	return u.b.unit(u.nv, u.kl, u.p.outLanes(og), og == u.ogLo), true
}

// openRow opens the channel's next row, which holds at least one unit.
func (u *Units) openRow() {
	p := &u.p
	if p.per == 0 {
		// GranGAct: every row, over the output groups og ≡ ch (mod
		// Channels).
		u.nv, u.kl = p.rowShape(u.at/p.nKChunks, u.at%p.nKChunks)
		u.ogLo, u.ogHi, u.step = u.ch, p.nOutGroups, p.cfg.Channels
		u.at++
	} else {
		// A contiguous run of units, cut where each row ends.
		og, row := u.at%p.nOutGroups, u.at/p.nOutGroups
		n := min(p.nOutGroups-og, u.end-u.at)
		u.nv, u.kl = p.rowShape(row/p.nKChunks, row%p.nKChunks)
		u.ogLo, u.ogHi, u.step = og, og+n, 1
		u.at += n
	}
	u.og = u.ogLo
}

// blocks builds unit command blocks in one buffer reused across a plan's
// units. A block is an optional GWRITE part, right-aligned in the first
// segs slots, followed by the body: G_ACT/COMP rows over the unit's
// K-chunk, then one READRES drain per vector. The GWRITE part depends on
// the vector count and chunk length (Segments and the options are fixed
// per plan), the body on those and the drains' burst count, which only a
// partial last output group changes. Each part is rebuilt only when its
// shape changes, so the interior units of a row reuse one block as is.
type blocks struct {
	buf  []pim.Command
	segs int      // GWRITE commands per chunk at most: Segments, or 1 strided
	kind pim.Kind // the GWRITE variant

	// Copied from the configuration: a pointer to it would let the plan
	// escape through the blocks Stream hands to its sink.
	elemsPerColIO, perRow, burstBytes int

	gw, gwVecs, gwKLen        int // GWRITE part buf[gw:segs] and its shape
	end, vecs, kLen, outLanes int // body buf[segs:end] and its shape
}

// newBlocks sizes the buffer for the plan's largest unit, taking it from
// buf when it is large enough.
func newBlocks(p *plan, buf []pim.Command) blocks {
	cfg := &p.cfg
	b := blocks{segs: p.w.Segments, kind: pim.KindGWrite, gwVecs: -1, vecs: -1,
		elemsPerColIO: cfg.ColumnIOBytes / 2, perRow: cfg.ColumnIOsPerRow, burstBytes: cfg.BurstBytes}
	switch cfg.GlobalBufs {
	case 2:
		b.kind = pim.KindGWrite2
	case 4:
		b.kind = pim.KindGWrite4
	}
	if p.opts.StridedGWrite {
		if b.segs > 1 {
			b.kind = pim.KindGWriteStrided
		}
		b.segs = 1
	}
	rows := ceilDiv(ceilDiv(p.kChunkLen, b.elemsPerColIO), b.perRow)
	n := b.segs + rows*(1+cfg.GlobalBufs) + cfg.GlobalBufs
	if cap(buf) < n {
		buf = make([]pim.Command, n)
	}
	b.buf = buf[:n]
	return b
}

// unit returns the block of a unit with nVecs vectors over a K-chunk of
// kLen elements and outLanes outputs, led by the chunk's GWRITE when gw.
// The block is valid until the next call.
func (b *blocks) unit(nVecs, kLen, outLanes int, gw bool) []pim.Command {
	if nVecs != b.vecs || kLen != b.kLen {
		b.body(nVecs, kLen, outLanes)
	} else if outLanes != b.outLanes {
		rr := resBursts(outLanes, b.burstBytes)
		for i := b.end - nVecs; i < b.end; i++ {
			b.buf[i].Bursts = rr
		}
		b.outLanes = outLanes
	}
	if !gw {
		return b.buf[b.segs:b.end]
	}
	if nVecs != b.gwVecs || kLen != b.gwKLen {
		b.gwrite(nVecs, kLen)
	}
	return b.buf[b.gw:b.end]
}

// body builds the G_ACT/COMP rows over the K-chunk and the READRES
// drains: one per vector, also after a partial K-chunk (GranComp splits),
// so the GPU can merge partial sums — the merge cost is the extra
// READRES traffic.
func (b *blocks) body(nVecs, kLen, outLanes int) {
	i := b.segs
	colIOs := ceilDiv(kLen, b.elemsPerColIO)
	for done := 0; done < colIOs; done += b.perRow {
		b.buf[i] = pim.Command{Kind: pim.KindGAct, NewRow: true}
		i++
		cols := min(b.perRow, colIOs-done)
		for v := 0; v < nVecs; v++ {
			b.buf[i] = pim.Command{Kind: pim.KindComp, Cols: cols}
			i++
		}
	}
	rr := resBursts(outLanes, b.burstBytes)
	for v := 0; v < nVecs; v++ {
		b.buf[i] = pim.Command{Kind: pim.KindReadRes, Bursts: rr}
		i++
	}
	b.end, b.vecs, b.kLen, b.outLanes = i, nVecs, kLen, outLanes
}

// gwrite builds the GWRITE command(s) that load the vectors' K-chunk
// into the channel's global buffers. Without strided GWRITE each
// contiguous segment needs its own command, and each segment's transfer
// rounds up to whole bursts.
func (b *blocks) gwrite(nVecs, kLen int) {
	segLen := ceilDiv(kLen, b.segs)
	b.gw = b.segs - ceilDiv(kLen, segLen)
	for i, rest := b.gw, kLen; rest > 0; i++ {
		l := min(segLen, rest)
		b.buf[i] = pim.Command{Kind: b.kind, Bursts: nVecs * ceilDiv(l*2, b.burstBytes)}
		rest -= l
	}
	b.gwVecs, b.gwKLen = nVecs, kLen
}

// resBursts is the READRES burst count that drains outLanes results.
func resBursts(outLanes, burstBytes int) int {
	return max(ceilDiv(outLanes*4, burstBytes), 1)
}

// Generate builds the per-channel command trace for the workload — the
// materialized form of Stream, for consumers that inspect the trace
// itself.
func Generate(w Workload, cfg pim.Config, opts Opts) (*pim.Trace, error) {
	var ts pim.TraceSink
	if err := Stream(w, cfg, opts, &ts); err != nil {
		return nil, err
	}
	return &ts.Trace, nil
}

// BlockStack is the block buffer, in commands, that TimeWorkload and
// verify.Workload keep on their stacks. A plan of the built-in PIM
// geometries needs at most Segments + 24, so a timing probe or a lint
// allocates no buffer; a larger plan takes one from the heap.
const BlockStack = 64

// TimeWorkload times the workload on the PIM configuration by feeding
// the unit blocks Stream emits straight through the timing engine —
// generation fused with simulation, no trace materialized — and
// fast-forwarding the periodic steady state of each channel's stream
// (see ffsim.go), so cost scales with the schedule's distinct command
// blocks, not its size. It walks one channel per class (plan.classOf)
// and copies that channel's drain, busy cycles and counts to the rest of
// the class. This is the back-end's layer-time primitive used by the
// execution-mode search; it returns exactly the Stats that Generate +
// Simulate would, and its only allocations are the returned Stats'
// slices. A grouped workload (Groups > 1) simulates one group's GEMM and
// scales the result: the groups are identical traces executed back to
// back.
func TimeWorkload(w Workload, cfg pim.Config, opts Opts) (pim.Stats, error) {
	groups := w.GroupCount()
	w.Groups = 0
	p, err := newPlan(w, cfg, opts)
	if err != nil {
		return pim.Stats{}, err
	}
	nCh := 0 // the channels owning units are 0..nCh-1
	for nCh < cfg.Channels && p.channelUnits(nCh) > 0 {
		nCh++
	}
	if nCh == 0 {
		return pim.Stats{}, fmt.Errorf("pim: empty trace")
	}
	st := pim.Stats{
		PerChannel:       make([]int64, 0, nCh),
		PerChannelBusy:   make([]int64, 0, nCh),
		PerChannelCounts: make([]pim.Counts, 0, nCh),
	}
	var (
		busySum float64
		walks   int
		stack   [BlockStack]pim.Command
		f       ffFeeder
	)
	b := newBlocks(&p, stack[:0])
	cw := channelWalker{p: &p, f: &f, b: &b}
	for ch := 0; ch < nCh; ch++ {
		drain, busy, counts := int64(0), int64(0), pim.Counts{}
		if c := p.classOf(ch); c < ch {
			drain, busy, counts = st.PerChannel[c], st.PerChannelBusy[c], st.PerChannelCounts[c]
		} else {
			f.cs.Reset(cfg, ch)
			f.err = nil
			if cw.walk(ch); f.err != nil {
				return pim.Stats{}, f.err
			}
			walks++
			drain, busy, counts = f.cs.Drain(), f.cs.Busy(), f.cs.Counts()
		}
		st.PerChannel = append(st.PerChannel, drain)
		st.PerChannelBusy = append(st.PerChannelBusy, busy)
		st.PerChannelCounts = append(st.PerChannelCounts, counts)
		st.Counts.Add(counts)
		st.Cycles = max(st.Cycles, drain)
		if drain > 0 {
			busySum += float64(busy) / float64(drain)
		}
	}
	st.BusyFraction = busySum / float64(nCh)
	st.Counts.MACs = st.Counts.ColIOs * int64(cfg.BanksPerChannel) * int64(cfg.MultsPerBank)
	st.Seconds = cfg.CyclesToSeconds(st.Cycles)
	c := st.Counts
	commands := c.GWrites + c.GActs + c.Comps + c.ReadRes
	st = st.Scale(int64(groups))
	if obs.Enabled(slog.LevelDebug) {
		obs.L().Debug("codegen: simulated PIM workload",
			"m", w.M, "k", w.K, "n", w.N, "segments", w.Segments, "groups", groups,
			"channels", len(st.PerChannel), "walks", walks, "commands", commands,
			"cycles", st.Cycles, "busy", st.BusyFraction)
	}
	return st, nil
}

// WorkloadEvents generates and simulates ONE group's trace of the
// workload, returning the single-group stats plus the per-command
// activity windows (PIM-clock cycles). Tracing layers use it to draw
// per-channel command activity; it materializes the trace (the event list
// is O(commands) anyway), so it is reserved for explicitly traced runs.
// Grouped workloads (GroupCount > 1) repeat the returned window back to
// back, which callers annotate rather than materialize.
func WorkloadEvents(w Workload, cfg pim.Config, opts Opts) (pim.Stats, []pim.CommandEvent, error) {
	w.Groups = 0
	tr, err := Generate(w, cfg, opts)
	if err != nil {
		return pim.Stats{}, nil, err
	}
	return pim.SimulateEvents(cfg, tr)
}

func ceilDiv(a, b int) int {
	return (a + b - 1) / b
}
