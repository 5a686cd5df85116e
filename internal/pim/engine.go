package pim

import "fmt"

// Stats is the result of simulating a PIM kernel trace.
type Stats struct {
	// Cycles is the kernel makespan: the slowest channel's drain time.
	Cycles int64
	// PerChannel holds each participating channel's drain time.
	PerChannel []int64
	// PerChannelBusy holds each participating channel's MAC-pipeline busy
	// cycles (the numerator of its utilization).
	PerChannelBusy []int64
	// PerChannelCounts holds each participating channel's command counts.
	PerChannelCounts []Counts
	// Counts aggregates command counts across channels.
	Counts Counts
	// Seconds is Cycles converted through the configured clock.
	Seconds float64
	// BusyFraction is the mean per-channel MAC-pipeline busy fraction,
	// a PIM utilization measure.
	BusyFraction float64
}

// Scale returns the stats multiplied by n, modeling n back-to-back runs of
// the same trace (grouped convolutions execute one per-group GEMM trace
// per group). Cycles, per-channel times, seconds, and command counts all
// scale linearly; BusyFraction is an average and stays put.
func (s Stats) Scale(n int64) Stats {
	if n == 1 {
		return s
	}
	out := s
	out.Cycles *= n
	out.Seconds *= float64(n)
	out.PerChannel = make([]int64, len(s.PerChannel))
	for i, c := range s.PerChannel {
		out.PerChannel[i] = c * n
	}
	out.PerChannelBusy = make([]int64, len(s.PerChannelBusy))
	for i, c := range s.PerChannelBusy {
		out.PerChannelBusy[i] = c * n
	}
	out.PerChannelCounts = make([]Counts, len(s.PerChannelCounts))
	for i, c := range s.PerChannelCounts {
		out.PerChannelCounts[i] = c.Scale(n)
	}
	out.Counts = s.Counts.Scale(n)
	return out
}

// CommandEvent is the simulated activity window of one command: issue to
// completion, in PIM-clock cycles. SimulateEvents emits one per command so
// observability layers can render per-channel activity on a timeline.
type CommandEvent struct {
	Channel    int
	Kind       Kind
	Start, End int64
}

// ChannelSim is the incremental timing stepper for one PIM channel: feed
// it the channel's command stream in order and read the drain time, busy
// cycles, and command counts at the end. It is the allocation-free core
// that both Simulate (materialized traces) and codegen.TimeWorkload
// (generation fused with timing) are built on. The zero value is
// unusable; call Reset first. Within a channel, commands issue in order
// with the following semantics (paper §2.1, §4.1):
//
//   - GWRITE occupies the channel data path for Bursts×tBL cycles and makes
//     the global buffer ready when the transfer completes. Without GWRITE
//     latency hiding the command queue blocks until then; with hiding
//     (PIMFlow's extension) the next command — typically G_ACT — issues in
//     the next cycle, because activation data is fetched from GPU channels
//     while PIM channels activate rows.
//   - G_ACT readies a row after tRCD (plus tRP, respecting tRAS, when a
//     different row is open).
//   - COMP waits for the row, the buffer, and the MAC pipeline, then
//     streams Cols column I/Os at one per tCCDL.
//   - READRES drains the result latches after the pipeline: tCL + bursts.
type ChannelSim struct {
	cfg     Config
	channel int

	t            int64 // next command issue cycle
	busInFreeAt  int64 // inbound data path (GWRITE bursts from GPU channels)
	busOutFreeAt int64 // outbound data path (READRES bursts to GPU channels)
	rowReadyAt   int64 // row activation completion
	rowOpenAt    int64 // when the current row was opened (tRAS)
	rowOpen      bool
	bufReadyAt   int64 // global buffer data availability
	lastCompAt   int64 // start of the most recent COMP (prefetch window)
	compFreeAt   int64 // MAC pipeline drain
	compBusy     int64 // cycles the MAC pipeline was streaming

	counts Counts
}

// Reset rebinds the stepper to a channel id and configuration and clears
// all timing state and counts. The configuration is NOT validated here —
// validate once per simulation, not once per channel.
func (c *ChannelSim) Reset(cfg Config, channel int) {
	*c = ChannelSim{cfg: cfg, channel: channel}
}

// Feed advances the channel by one command and returns the command's
// activity window (issue cycle to completion cycle). Command counts are
// accumulated in-stream, so no second pass over the trace is needed.
func (c *ChannelSim) Feed(cmd Command) (evStart, evEnd int64, err error) {
	tm := &c.cfg.Timing
	// A single switch on the kind covers every GWRITE variant explicitly:
	// this is the simulator's hottest dispatch, and the chained
	// Kind.IsGWrite() comparisons it replaces showed up in CPU profiles.
	switch cmd.Kind {
	case KindGWrite, KindGWrite2, KindGWrite4, KindGWriteStrided:
		if cmd.Bursts < 0 {
			return 0, 0, fmt.Errorf("pim: negative bursts on channel %d", c.channel)
		}
		var start int64
		if c.cfg.GWriteLatencyHiding {
			// Asynchronous issue (§4.1): the controller queues the
			// transfer with one-deep prefetch — it streams in from
			// GPU channels once computation on the previous buffer
			// set has begun, overlapping transfer with COMP/G_ACT.
			start = max(c.busInFreeAt, c.lastCompAt)
		} else {
			start = max(c.t, c.busInFreeAt, c.busOutFreeAt)
		}
		if c.cfg.GlobalBufs == 1 {
			// A single buffer cannot be refilled while COMPs are
			// still consuming it; multiple buffers double-buffer.
			start = max(start, c.compFreeAt)
		}
		done := start + int64(cmd.Bursts)*int64(tm.TBL)
		c.busInFreeAt = done
		c.bufReadyAt = done
		if c.cfg.GWriteLatencyHiding {
			// The queue moves on so the following G_ACT overlaps
			// the in-flight transfer.
			c.t = max(c.t, start) + 1
		} else {
			c.t = done
		}
		c.counts.GWrites++
		c.counts.GWBursts += int64(cmd.Bursts)
		return start, done, nil
	case KindGAct:
		// Banks cannot activate a new row while the MAC pipeline
		// streams column I/Os from the open one — unless bank
		// ping-pong is enabled, in which case the activation lands
		// in the other bank group and overlaps the COMP stream.
		start := max(c.t, c.compFreeAt)
		if c.cfg.BankPingPong {
			start = c.t
		}
		if cmd.NewRow && c.rowOpen {
			// Precharge the open row first, honoring tRAS.
			pre := max(start, c.rowOpenAt+int64(tm.TRAS))
			c.rowReadyAt = pre + int64(tm.TRP) + int64(tm.TRCD)
			start = pre
		} else {
			c.rowReadyAt = start + int64(tm.TRCD)
		}
		c.rowOpenAt = c.rowReadyAt
		c.rowOpen = true
		c.t = start + 1
		c.counts.GActs++
		if cmd.NewRow {
			c.counts.NewRows++
		}
		return start, c.rowReadyAt, nil
	case KindComp:
		if cmd.Cols <= 0 {
			return 0, 0, fmt.Errorf("pim: COMP with %d cols on channel %d", cmd.Cols, c.channel)
		}
		start := max(c.t, c.rowReadyAt, c.bufReadyAt, c.compFreeAt)
		dur := int64(cmd.Cols) * int64(tm.TCCDL)
		c.lastCompAt = start
		c.compFreeAt = start + dur
		c.compBusy += dur
		// Issue is pipelined: the queue advances so a following
		// GWRITE can stream the next buffer during the COMPs.
		c.t = start + 1
		c.counts.Comps++
		c.counts.ColIOs += int64(cmd.Cols)
		return start, c.compFreeAt, nil
	case KindReadRes:
		// Result latches must be stable: drain after the pipeline,
		// and block the queue (no latch double-buffering). Results
		// leave on the outbound path toward GPU channels.
		start := max(c.t, c.compFreeAt, c.busOutFreeAt)
		done := start + int64(tm.TCL) + int64(cmd.Bursts)*int64(tm.TBL)
		c.busOutFreeAt = done
		c.t = done
		c.counts.ReadRes++
		c.counts.RRBursts += int64(cmd.Bursts)
		return start, done, nil
	default:
		return 0, 0, fmt.Errorf("pim: unknown command kind %d", cmd.Kind)
	}
}

// Phase is a complete snapshot of a ChannelSim's timing state: every
// absolute-cycle field, the row-open flag, and the accumulated busy
// cycles and command counts. Streaming generators use pairs of phases to
// detect a periodic steady state (ShiftOf) and then fast-forward whole
// repetitions of a command block (Advance) instead of feeding them.
type Phase struct {
	times   [8]int64
	rowOpen bool
	busy    int64
	counts  Counts
}

// Phase snapshots the current state.
func (c *ChannelSim) Phase() Phase {
	return Phase{
		times: [8]int64{
			c.t, c.busInFreeAt, c.busOutFreeAt, c.rowReadyAt,
			c.rowOpenAt, c.bufReadyAt, c.lastCompAt, c.compFreeAt,
		},
		rowOpen: c.rowOpen,
		busy:    c.compBusy,
		counts:  c.counts,
	}
}

// ShiftOf reports whether cur is prev translated forward in time by one
// uniform shift: every timing field advanced by the same non-negative
// delta and the row-open flag is unchanged. When it holds, the transition
// prev→cur is a fixed point of the recurrence up to translation — every
// Feed rule computes only maxima of state fields plus constant offsets,
// with no absolute-time constants — so replaying the same command block
// from cur yields exactly cur shifted by the same delta again.
func ShiftOf(prev, cur Phase) (int64, bool) {
	if cur.rowOpen != prev.rowOpen {
		return 0, false
	}
	dt := cur.times[0] - prev.times[0]
	if dt < 0 {
		return 0, false
	}
	for i := 1; i < len(cur.times); i++ {
		if cur.times[i]-prev.times[i] != dt {
			return 0, false
		}
	}
	return dt, true
}

// Advance fast-forwards the channel by k further repetitions of a command
// block whose single-repetition effect was the transition prev→cur. The
// caller must have established ShiftOf(prev, cur) — then each repetition
// shifts every timing field by the same delta and accumulates the same
// busy/count increments, so k repetitions are applied in O(1) with
// results identical to feeding every command.
func (c *ChannelSim) Advance(k int64, prev, cur Phase) {
	if k <= 0 {
		return
	}
	dt := (cur.times[0] - prev.times[0]) * k
	c.t += dt
	c.busInFreeAt += dt
	c.busOutFreeAt += dt
	c.rowReadyAt += dt
	c.rowOpenAt += dt
	c.bufReadyAt += dt
	c.lastCompAt += dt
	c.compFreeAt += dt
	c.compBusy += (cur.busy - prev.busy) * k
	d := cur.counts
	d.Sub(prev.counts)
	c.counts.Add(d.Scale(k))
}

// ShiftOfInterior is the steady-state test for command blocks that
// contain no GWRITE (the interior of one buffered row: G_ACT, COMP, and
// READRES only). Such blocks never move busInFreeAt or bufReadyAt, so
// the uniform-shift test of ShiftOf can never hold; instead those two
// fields are checked to be irrelevant:
//
//   - busInFreeAt is neither read nor written by G_ACT/COMP/READRES, so
//     its (unchanged) value cannot influence a GWRITE-free replay.
//   - bufReadyAt is read by COMP's start rule, but t never decreases,
//     and every COMP start is ≥ the t at its issue ≥ prev's t. So once
//     bufReadyAt ≤ t, the stale buffer-ready time can never win the
//     COMP max again and the recurrence reduces to the remaining six
//     fields — which are translation-invariant exactly as in ShiftOf.
//
// When it holds, replaying the block from cur advances the six live
// fields by dt again and leaves the two frozen fields untouched;
// AdvanceInterior applies k such repetitions in O(1), bit-identically.
func ShiftOfInterior(prev, cur Phase) (int64, bool) {
	if cur.rowOpen != prev.rowOpen {
		return 0, false
	}
	dt := cur.times[0] - prev.times[0]
	if dt < 0 {
		return 0, false
	}
	// Indices into Phase.times: 0 t, 1 busInFreeAt, 2 busOutFreeAt,
	// 3 rowReadyAt, 4 rowOpenAt, 5 bufReadyAt, 6 lastCompAt, 7 compFreeAt.
	for _, i := range [...]int{2, 3, 4, 6, 7} {
		if cur.times[i]-prev.times[i] != dt {
			return 0, false
		}
	}
	if cur.times[1] != prev.times[1] || cur.times[5] != prev.times[5] {
		// A moved bus-in or buffer-ready time means the block was not
		// GWRITE-free after all; fall back to full simulation.
		return 0, false
	}
	if prev.times[5] > prev.times[0] {
		// The buffer-ready time is still ahead of t and could yet gate
		// a COMP start.
		return 0, false
	}
	return dt, true
}

// AdvanceInterior fast-forwards k repetitions of a GWRITE-free block
// whose transition prev→cur satisfied ShiftOfInterior: the six live
// timing fields shift, busInFreeAt and bufReadyAt stay frozen.
func (c *ChannelSim) AdvanceInterior(k int64, prev, cur Phase) {
	if k <= 0 {
		return
	}
	dt := (cur.times[0] - prev.times[0]) * k
	c.t += dt
	c.busOutFreeAt += dt
	c.rowReadyAt += dt
	c.rowOpenAt += dt
	c.lastCompAt += dt
	c.compFreeAt += dt
	c.compBusy += (cur.busy - prev.busy) * k
	d := cur.counts
	d.Sub(prev.counts)
	c.counts.Add(d.Scale(k))
}

// Drain returns the channel's drain time: the cycle when the command
// queue, both data paths, and the MAC pipeline have all gone idle,
// stretched by the refresh duty cycle when refresh modeling is on.
func (c *ChannelSim) Drain() int64 {
	drain := max(c.t, c.busInFreeAt, c.busOutFreeAt, c.compFreeAt)
	if c.cfg.ModelRefresh && c.cfg.Timing.TREFI > 0 {
		// All-bank refresh steals tRFC every tREFI: stretch the drain
		// time by the refresh duty cycle (kernels are short relative
		// to tREFI, so the amortized model matches interleaving).
		duty := float64(c.cfg.Timing.TRFC) / float64(c.cfg.Timing.TREFI-c.cfg.Timing.TRFC)
		drain += int64(float64(drain) * duty)
	}
	return drain
}

// Busy returns the cycles the MAC pipeline spent streaming column I/Os.
func (c *ChannelSim) Busy() int64 { return c.compBusy }

// Counts returns the command counts accumulated by Feed so far (MACs is
// a cross-channel derived quantity and stays zero here, matching
// CountOf).
func (c *ChannelSim) Counts() Counts { return c.counts }

// Simulate executes the trace against the configuration and returns timing
// statistics. Channels are independent; see ChannelSim for the per-channel
// command semantics.
func Simulate(cfg Config, tr *Trace) (Stats, error) {
	st, _, err := simulate(cfg, tr, false)
	return st, err
}

// SimulateEvents is Simulate plus the per-command activity windows, in
// channel order then command order. It costs extra allocation proportional
// to the command count, so it is reserved for tracing runs.
func SimulateEvents(cfg Config, tr *Trace) (Stats, []CommandEvent, error) {
	return simulate(cfg, tr, true)
}

func simulate(cfg Config, tr *Trace, record bool) (Stats, []CommandEvent, error) {
	if err := cfg.Validate(); err != nil {
		return Stats{}, nil, err
	}
	if len(tr.Channels) == 0 {
		return Stats{}, nil, fmt.Errorf("pim: empty trace")
	}
	if len(tr.Channels) > cfg.Channels {
		return Stats{}, nil, fmt.Errorf("pim: trace uses %d channels, config has %d", len(tr.Channels), cfg.Channels)
	}
	stats := Stats{
		PerChannel:       make([]int64, len(tr.Channels)),
		PerChannelBusy:   make([]int64, len(tr.Channels)),
		PerChannelCounts: make([]Counts, len(tr.Channels)),
	}
	var events []CommandEvent
	if record {
		events = make([]CommandEvent, 0, tr.TotalCommands())
	}
	var busySum float64
	var cs ChannelSim
	for i, ch := range tr.Channels {
		cs.Reset(cfg, ch.Channel)
		for _, cmd := range ch.Commands {
			evStart, evEnd, err := cs.Feed(cmd)
			if err != nil {
				return Stats{}, nil, err
			}
			if record {
				events = append(events, CommandEvent{Channel: ch.Channel, Kind: cmd.Kind, Start: evStart, End: evEnd})
			}
		}
		drain := cs.Drain()
		stats.PerChannel[i] = drain
		stats.PerChannelBusy[i] = cs.Busy()
		if drain > stats.Cycles {
			stats.Cycles = drain
		}
		if drain > 0 {
			busySum += float64(cs.Busy()) / float64(drain)
		}
		stats.PerChannelCounts[i] = cs.Counts()
		stats.Counts.Add(stats.PerChannelCounts[i])
	}
	stats.BusyFraction = busySum / float64(len(tr.Channels))
	stats.Counts.MACs = stats.Counts.ColIOs * int64(cfg.BanksPerChannel) * int64(cfg.MultsPerBank)
	stats.Seconds = cfg.CyclesToSeconds(stats.Cycles)
	return stats, events, nil
}
