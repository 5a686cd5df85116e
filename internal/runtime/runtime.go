// Package runtime implements PIMFlow's mixed-parallel execution engine
// (paper §4.2, §4.3.1): a transformed model graph is scheduled onto two
// in-order device queues — the GPU stream and the PIM command processor —
// honoring data dependencies. MD-DP halves and pipeline stages overlap
// naturally: the scheduler starts a node as soon as its producers finished
// and its device queue is free, so a GPU half runs while the PIM half of
// the same split node executes, and pipeline chunk j of a downstream node
// overlaps chunk j+1 of its upstream node on the other device.
//
// Cross-device data movement between the GPU and PIM channel groups
// travels the memory network (paper Fig 4). PIM-bound input traffic is
// already part of the PIM command trace (GWRITE bursts), so the runtime
// charges the interconnect only for PIM-produced tensors consumed by GPU
// kernels, plus a fixed synchronization latency per cross-device edge.
// Memory-controller contention was measured negligible in the paper
// (0.15-0.22%, §7) and is not modeled.
package runtime

import (
	"fmt"
	"log/slog"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"pimflow/internal/codegen"
	"pimflow/internal/gpu"
	"pimflow/internal/graph"
	"pimflow/internal/obs"
	"pimflow/internal/pim"
	"pimflow/internal/profcache"
	"pimflow/internal/verify"
)

// Config describes the simulated heterogeneous system.
type Config struct {
	// GPU is the GPU model; its MemChannels must already reflect the
	// GPU-visible share of the memory (32 in GPU-only mode, 32 minus PIM
	// channels in PIM mode).
	GPU gpu.Config
	// PIM is the PIM-enabled channel group.
	PIM pim.Config
	// Codegen selects PIM command generation options.
	Codegen codegen.Opts
	// VerifyTraces lints every generated PIM command trace against the
	// §4.1 protocol rules and the workload-coverage oracle before it is
	// simulated, failing the execution with structured diagnostics instead
	// of silently timing an illegal command stream. A debug aid, off by
	// default; it re-generates each offloaded node's command stream and
	// lints it as it is generated, so it costs one extra codegen pass per
	// PIM node and stores no trace.
	VerifyTraces bool
	// InterconnectBytesPerCycle is the memory-network bandwidth between
	// channel groups used for PIM->GPU result movement.
	InterconnectBytesPerCycle float64
	// SyncOverheadCycles is charged once per cross-device dependency edge
	// and once at each zero-cost junction that merges results from both
	// devices (the MD-DP concat).
	SyncOverheadCycles int64
	// Profiles optionally caches per-node device timings across Execute
	// calls (and across the search, which shares the same store). Nil
	// disables caching. Not part of the configuration fingerprint.
	Profiles *profcache.Store `json:"-"`
	// Trace, when non-nil, collects the schedule as span events on the
	// simulated timeline — per-node GPU/PIM spans (Report.Draw) plus
	// per-channel PIM command activity (which re-simulates offloaded nodes
	// with event recording, so it is reserved for explicitly traced runs).
	// Nil, the default, costs one pointer compare per node.
	Trace *obs.Trace `json:"-"`
	// Metrics, when non-nil, receives the execution's MetricsRecord:
	// counters and gauges (busy cycles, data movement, per-channel
	// utilization, PIM command mix). Nil builds no record.
	Metrics *obs.Metrics `json:"-"`
}

// PIMCycleScale returns the factor converting PIM-clock cycles into
// GPU-clock cycles. The report's timeline is kept in the GPU clock
// domain, so PIM durations are scaled by ClockGHz(GPU)/ClockGHz(PIM)
// before they are compared or summed with GPU times.
func (c Config) PIMCycleScale() float64 {
	return c.GPU.ClockGHz / c.PIM.ClockGHz
}

// pimCyclesToGPU converts a PIM-domain cycle count to GPU-domain cycles.
func (c Config) pimCyclesToGPU(cycles int64) int64 {
	if c.GPU.ClockGHz == c.PIM.ClockGHz {
		return cycles
	}
	return int64(math.Round(float64(cycles) * c.PIMCycleScale()))
}

// DefaultConfig returns the paper's 16+16 channel PIM-enabled GPU memory
// with the full PIMFlow feature set.
func DefaultConfig() Config {
	return Config{
		GPU:                       gpu.DefaultConfig().WithChannels(16),
		PIM:                       pim.DefaultConfig(),
		Codegen:                   codegen.DefaultOpts(),
		InterconnectBytesPerCycle: 256,
		SyncOverheadCycles:        200,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.GPU.Validate(); err != nil {
		return err
	}
	if err := c.PIM.Validate(); err != nil {
		return err
	}
	if c.InterconnectBytesPerCycle <= 0 {
		return fmt.Errorf("runtime: non-positive interconnect bandwidth")
	}
	if c.SyncOverheadCycles < 0 {
		return fmt.Errorf("runtime: negative sync overhead")
	}
	return nil
}

// NodeReport records one node's simulated execution.
type NodeReport struct {
	Name   string
	Op     graph.OpType
	Device graph.Device
	Mode   graph.ExecMode
	// Start and End are cycle timestamps in the GPU clock domain (PIM
	// node durations are converted via Config.PIMCycleScale). Elided
	// nodes have Start == End unless they merge both devices' results,
	// in which case they carry the one-time synchronization latency.
	Start, End int64
	Elided     bool
	// mergeSync marks a zero-cost junction that merged both devices'
	// results and so carries the synchronization latency (Draw marks it
	// with a merge-sync instant).
	mergeSync bool
	// FLOPs and DRAMBytes describe the work (GPU nodes).
	FLOPs     int64
	DRAMBytes int64
	// PIMCounts holds command statistics for PIM nodes.
	PIMCounts pim.Counts
	// MoveCycles is cross-device data-movement latency charged before the
	// node started.
	MoveCycles int64
}

// Duration returns the node's busy time.
func (r NodeReport) Duration() int64 { return r.End - r.Start }

// Report is the result of executing a graph.
type Report struct {
	// StartCycle is the virtual-clock offset the execution was scheduled
	// at (0 for plain Execute). Node timestamps and TotalCycles are
	// absolute on that shared timeline.
	StartCycle  int64
	TotalCycles int64
	// Seconds is the execution's duration (not the absolute end time).
	Seconds float64
	Nodes   []NodeReport
	// GPUBusy and PIMBusy are summed busy cycles per device.
	GPUBusy, PIMBusy int64
	// MoveCycles is total cross-device data-movement time.
	MoveCycles int64
}

// DurationCycles returns the execution's busy span on the virtual
// timeline: end minus the scheduled start.
func (r *Report) DurationCycles() int64 { return r.TotalCycles - r.StartCycle }

// NodeByName returns the report entry for a node, or nil.
func (r *Report) NodeByName(name string) *NodeReport {
	for i := range r.Nodes {
		if r.Nodes[i].Name == name {
			return &r.Nodes[i]
		}
	}
	return nil
}

// zeroCost nodes complete instantly: reshapes and pass-throughs that real
// frameworks fold away, and nodes the layout pass elided.
func zeroCost(n *graph.Node) bool {
	return n.Op == graph.OpFlatten || n.Op == graph.OpIdentity || n.Elided
}

// fusableActivation reports whether the op is a unary activation that the
// GPU back-end fuses into a preceding convolution or FC kernel epilogue
// (the TVM/cuDNN mapping the paper builds on fuses these).
func fusableActivation(op graph.OpType) bool {
	switch op {
	case graph.OpRelu, graph.OpClip, graph.OpSigmoid, graph.OpSiLU, graph.OpGelu:
		return true
	}
	return false
}

// Execute schedules the graph and returns the timing report.
func Execute(g *graph.Graph, cfg Config) (*Report, error) {
	return ExecuteAt(g, cfg, 0)
}

// ExecuteAt schedules an already-compiled graph starting at the given
// virtual-clock cycle: node timestamps, trace spans, and
// Report.TotalCycles are all offset by startCycle, and Report.Seconds
// stays the execution's duration. The schedule does not depend on the
// offset otherwise, which is what lets a caller place one report at many
// offsets (Report.Draw, MetricsRecord.Apply) instead of executing again.
//
// ExecuteAt never mutates the graph: concurrent calls over one shared
// *graph.Graph are safe. A graph whose shapes were not inferred yet is
// cloned before the one-time inference rather than annotated in place.
func ExecuteAt(g *graph.Graph, cfg Config, startCycle int64) (*Report, error) {
	rep, _, err := execute(g, cfg, startCycle, cfg.Metrics != nil)
	return rep, err
}

// ExecuteRecorded is Execute that also returns the execution's
// MetricsRecord, for a caller that charges the one schedule many times
// and publishes each charge with MetricsRecord.Apply.
func ExecuteRecorded(g *graph.Graph, cfg Config) (*Report, *MetricsRecord, error) {
	return execute(g, cfg, 0, true)
}

// execute builds the schedule, and its metrics record when record is
// set, applies the record to cfg.Metrics and draws the schedule on
// cfg.Trace.
func execute(g *graph.Graph, cfg Config, startCycle int64, record bool) (*Report, *MetricsRecord, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if startCycle < 0 {
		return nil, nil, fmt.Errorf("runtime: negative start cycle %d", startCycle)
	}
	x := g.Index()
	order, err := x.Order()
	if err != nil {
		return nil, nil, err
	}
	var rec *MetricsRecord
	if record {
		rec = new(MetricsRecord)
	}
	// Ensure shapes are available. Inference annotates tensor records, so
	// it runs on a private clone: callers (the serving layer in
	// particular) may execute the same graph from many goroutines, and a
	// shared graph must stay read-only here. The clone keeps the node
	// order, so order stays valid for its index.
	for _, i := range order {
		n := x.At(i)
		if len(n.Outputs) == 0 {
			return nil, nil, fmt.Errorf("runtime: node %q (%s) has no outputs", n.Name, n.Op)
		}
		ti := g.Tensors[n.Outputs[0]]
		if ti == nil || !ti.Shape.Valid() {
			g = g.Clone()
			x = g.Index()
			if _, err := x.InferShapes(); err != nil {
				return nil, nil, err
			}
			break
		}
	}

	// Profile-store keys share one device suffix per configuration;
	// format it once for the whole schedule.
	var pimKeys profcache.PIMKeys
	var gpuKeys profcache.GPUKeys
	if cfg.Profiles != nil {
		pimKeys, gpuKeys = profcache.NewPIMKeys(cfg.PIM, cfg.Codegen), profcache.NewGPUKeys(cfg.GPU)
	}

	done := make([]scheduled, x.Len()) // by node position
	gpuFree, pimFree := startCycle, startCycle
	rep := &Report{StartCycle: startCycle, TotalCycles: startCycle, Nodes: make([]NodeReport, 0, len(order))}

	for _, i := range order {
		n := x.At(i)
		zero := zeroCost(n)
		dev := n.Exec.Device
		if dev == graph.DevicePIM && !g.IsPIMCandidate(n) {
			return nil, nil, fmt.Errorf("runtime: node %q (%s) annotated for PIM but not offloadable", n.Name, n.Op)
		}
		// Ready time: producers plus cross-device movement.
		ready, moveCycles := startCycle, int64(0)
		prods := x.InputProducers(i)
		for k, p := range prods {
			if p < 0 {
				continue // graph input or weight
			}
			t := done[p].end
			// Elided producers/consumers never moved data, so the edge is
			// not a real cross-device transfer.
			if done[p].dev != dev && !zero && !done[p].zero {
				move := cfg.SyncOverheadCycles
				if done[p].dev == graph.DevicePIM && dev == graph.DeviceGPU {
					// PIM results travel the memory network to GPU
					// channels (Fig 4, step 4).
					bytes := int64(g.Tensors[n.Inputs[k]].Shape.Elems()) * 2
					move += int64(float64(bytes) / cfg.InterconnectBytesPerCycle)
				}
				t += move
				moveCycles += move
			}
			if t > ready {
				ready = t
			}
		}

		// Unary activations following a conv/FC with no other consumer are
		// free: GPU kernels fuse them into the producer's epilogue and the
		// PIM device applies activation functions on readout (AiM-style).
		// Elided concat/slice producers are looked through, so MD-DP split
		// layers keep their activation fused.
		fused := false
		if fusableActivation(n.Op) && len(n.Inputs) == 1 {
			p := int(prods[0])
			for p >= 0 && done[p].zero && len(x.At(p).Inputs) > 0 {
				p = int(x.InputProducers(p)[0])
			}
			if p >= 0 && (x.At(p).Op == graph.OpConv || x.At(p).Op == graph.OpGemm) &&
				len(x.Consumers(n.Inputs[0])) == 1 {
				fused = true
			}
		}

		var start, end int64
		nr := NodeReport{Name: n.Name, Op: n.Op, Device: dev, Mode: n.Exec.Mode, MoveCycles: moveCycles}
		if zero || fused {
			start, end = ready, ready
			nr.Elided = true
			// A zero-cost junction that merges results produced on both
			// devices (the MD-DP / pipeline concat) still synchronizes
			// them once. This is the same single SyncOverheadCycles charge
			// the search's profiler models for a split layer, keeping the
			// two cost models aligned.
			if zero && mergesDevices(prods, done) {
				end = ready + cfg.SyncOverheadCycles
				nr.MoveCycles += cfg.SyncOverheadCycles
				moveCycles += cfg.SyncOverheadCycles
				nr.mergeSync = true
			}
		} else if dev == graph.DevicePIM {
			w, err := codegen.NodeWorkload(g, n)
			if err != nil {
				return nil, nil, fmt.Errorf("runtime: PIM node %q: %w", n.Name, err)
			}
			if cfg.VerifyTraces {
				if diags := verify.Workload(w, cfg.PIM, cfg.Codegen); len(diags) > 0 {
					verify.Record(cfg.Metrics, diags)
					return nil, nil, fmt.Errorf("runtime: PIM node %q: %w", n.Name, verify.AsError(diags))
				}
			}
			prof, err := timePIM(w, &cfg, pimKeys)
			if err != nil {
				return nil, nil, fmt.Errorf("runtime: PIM node %q: %w", n.Name, err)
			}
			cycles := cfg.pimCyclesToGPU(prof.Cycles)
			start = max(ready, pimFree)
			end = start + cycles
			pimFree = end
			rep.PIMBusy += cycles
			nr.PIMCounts = prof.Counts
			if rec != nil {
				rec.addPIMNode(prof)
			}
			if cfg.Trace.Enabled() {
				if err := traceChannelActivity(cfg, w, n.Name, start); err != nil {
					return nil, nil, fmt.Errorf("runtime: tracing PIM node %q: %w", n.Name, err)
				}
			}
		} else {
			cycles, k, err := timeGPU(g, n, &cfg, gpuKeys)
			if err != nil {
				return nil, nil, fmt.Errorf("runtime: GPU node %q: %w", n.Name, err)
			}
			start = max(ready, gpuFree)
			end = start + cycles
			gpuFree = end
			rep.GPUBusy += cycles
			nr.FLOPs = k.FLOPs
			nr.DRAMBytes = k.DRAMBytes
		}
		nr.Start, nr.End = start, end
		done[i] = scheduled{end: end, dev: dev, zero: zero}
		rep.MoveCycles += moveCycles
		rep.Nodes = append(rep.Nodes, nr)
		if end > rep.TotalCycles {
			rep.TotalCycles = end
		}
	}
	// The timeline is in GPU-clock cycles throughout (PIM durations were
	// scaled by PIMCycleScale), so the GPU clock alone converts to time.
	rep.Seconds = float64(rep.DurationCycles()) / (cfg.GPU.ClockGHz * 1e9)
	if rec != nil {
		rec.rep = rep
		rec.Apply(cfg.Metrics, startCycle)
	}
	rep.Draw(cfg.Trace, startCycle)
	if obs.Enabled(slog.LevelDebug) {
		obs.L().Debug("runtime: executed graph",
			"graph", g.Name, "nodes", len(order),
			"totalCycles", rep.TotalCycles, "ms", rep.Seconds*1e3,
			"gpuBusy", rep.GPUBusy, "pimBusy", rep.PIMBusy, "moveCycles", rep.MoveCycles)
	}
	return rep, rec, nil
}

// Draw places the report's schedule on tr's simulated timeline, moved
// to begin at startCycle: the GPU and PIM tracks, a span per node that
// took device time, a merge-sync instant per junction that merged both
// devices, and the totals as trace meta. ExecuteAt draws every traced
// execution with it, the serving layer draws a model's solo report at
// each lease it charges, and pimflow -timeline draws a run's report
// into a file of its own. A nil trace draws nothing.
func (r *Report) Draw(tr *obs.Trace, startCycle int64) {
	if !tr.Enabled() {
		return
	}
	shift := startCycle - r.StartCycle
	tr.SetProcessName(obs.PIDTimeline, "simulated timeline (1 cycle = 1 ns)")
	tr.SetThreadName(obs.PIDTimeline, obs.TIDGPU, "GPU stream")
	tr.SetThreadName(obs.PIDTimeline, obs.TIDPIM, "PIM command processor")
	for i := range r.Nodes {
		nr := &r.Nodes[i]
		if nr.mergeSync {
			tr.InstantCycles(obs.TIDGPU, nr.Name, "merge-sync", nr.End+shift,
				map[string]any{"syncCycles": nr.Duration()})
		}
		if nr.Elided || nr.Duration() == 0 {
			continue
		}
		tid := obs.TIDGPU
		if nr.Device == graph.DevicePIM {
			tid = obs.TIDPIM
		}
		tr.CompleteCycles(tid, nr.Name, string(nr.Op), nr.Start+shift, nr.Duration(), map[string]any{
			"device": nr.Device.String(), "mode": nr.Mode.String(),
			"cycles": nr.Duration(), "moveCycles": nr.MoveCycles,
		})
	}
	tr.SetMeta("totalCycles", r.TotalCycles+shift)
	tr.SetMeta("gpuBusy", r.GPUBusy)
	tr.SetMeta("pimBusy", r.PIMBusy)
}

// MetricsRecord is what one execution adds to a metrics registry: the
// runtime.* counters and gauges, and the pim.* command mix, per-channel
// busy cycles and per-channel utilization samples of its offloaded
// nodes. Only runtime.total_cycles depends on where the schedule was
// placed, so one record stands for the execution at every offset (Apply).
type MetricsRecord struct {
	rep      *Report
	pimNodes int64
	counts   pim.Counts
	// channelBusy sums each channel's busy cycles over the offloaded
	// nodes; utilization holds their busy fractions in schedule order.
	channelBusy []int64
	utilization obs.Samples
}

// addPIMNode folds one offloaded node's profile in: the command-kind mix
// and each channel's busy cycles and MAC-pipeline utilization over the
// kernel makespan.
func (r *MetricsRecord) addPIMNode(prof profcache.Profile) {
	r.pimNodes++
	r.counts.Add(prof.Counts)
	if n := len(prof.PerChannelBusy); n > len(r.channelBusy) {
		r.channelBusy = append(r.channelBusy, make([]int64, n-len(r.channelBusy))...)
	}
	for ch, busy := range prof.PerChannelBusy {
		r.channelBusy[ch] += busy
		if prof.Cycles > 0 {
			r.utilization.Add(float64(busy) / float64(prof.Cycles))
		}
	}
}

// Apply adds the record to m as one execution placed at startCycle: one
// atomic add per counter and channel, one lock for the utilization
// samples, and the gauges set to this execution's totals. Concurrent
// Applies of one record are safe; a nil record or registry does nothing.
func (r *MetricsRecord) Apply(m *obs.Metrics, startCycle int64) {
	if r == nil || m == nil {
		return
	}
	e := obs.Bound(m, execMetricsKey{}, newExecMetrics)
	// A series appears with its first update, so a plan without
	// offloaded nodes adds no pim.* series.
	if r.pimNodes > 0 {
		e.pimNodes.Add(r.pimNodes)
		e.gwrite.Add(r.counts.GWrites)
		e.gact.Add(r.counts.GActs)
		e.comp.Add(r.counts.Comps)
		e.readres.Add(r.counts.ReadRes)
		e.colIOs.Add(r.counts.ColIOs)
		e.gwBursts.Add(r.counts.GWBursts)
		e.rrBursts.Add(r.counts.RRBursts)
	}
	chans := e.channelCounters(len(r.channelBusy))
	for ch, busy := range r.channelBusy {
		chans[ch].Add(busy)
	}
	e.utilization.ObserveBlock(&r.utilization)
	rep, d := r.rep, r.rep.DurationCycles()
	e.executions.Inc()
	e.nodes.Add(int64(len(rep.Nodes)))
	e.total.Set(float64(startCycle + d))
	e.seconds.Set(rep.Seconds)
	e.gpuBusy.Set(float64(rep.GPUBusy))
	e.pimBusy.Set(float64(rep.PIMBusy))
	e.move.Set(float64(rep.MoveCycles))
	if d > 0 {
		e.gpuFrac.Set(float64(rep.GPUBusy) / float64(d))
		e.pimFrac.Set(float64(rep.PIMBusy) / float64(d))
	}
}

// execMetricsKey keys the runtime's handle set in a registry.
type execMetricsKey struct{}

// execMetrics holds one registry's handles on every series an execution
// updates. ExecuteAt resolves it once per registry (obs.Bound), so a live
// execution hashes no metric name and takes no registry lock.
type execMetrics struct {
	m *obs.Metrics

	executions, nodes, pimNodes                              *obs.Counter
	gwrite, gact, comp, readres, colIOs, gwBursts, rrBursts  *obs.Counter
	utilization                                              *obs.Histogram
	total, seconds, gpuBusy, pimBusy, move, gpuFrac, pimFrac *obs.Gauge

	// channels holds the pim.channel_busy_cycles handles of channels
	// 0..len-1; a wider PIM config appends under mu.
	mu       sync.Mutex
	channels atomic.Pointer[[]*obs.Counter]
}

func newExecMetrics(m *obs.Metrics) *execMetrics {
	return &execMetrics{
		m:           m,
		executions:  m.CounterOf("runtime.executions"),
		nodes:       m.CounterOf("runtime.nodes"),
		pimNodes:    m.CounterOf("runtime.pim_nodes"),
		gwrite:      m.CounterOf("pim.commands.gwrite"),
		gact:        m.CounterOf("pim.commands.g_act"),
		comp:        m.CounterOf("pim.commands.comp"),
		readres:     m.CounterOf("pim.commands.readres"),
		colIOs:      m.CounterOf("pim.col_ios"),
		gwBursts:    m.CounterOf("pim.gwrite_bursts"),
		rrBursts:    m.CounterOf("pim.readres_bursts"),
		utilization: m.HistogramOf("pim.channel_utilization"),
		total:       m.GaugeOf("runtime.total_cycles"),
		seconds:     m.GaugeOf("runtime.seconds"),
		gpuBusy:     m.GaugeOf("runtime.gpu_busy_cycles"),
		pimBusy:     m.GaugeOf("runtime.pim_busy_cycles"),
		move:        m.GaugeOf("runtime.move_cycles"),
		gpuFrac:     m.GaugeOf("runtime.gpu_busy_fraction"),
		pimFrac:     m.GaugeOf("runtime.pim_busy_fraction"),
	}
}

// channelCounters returns the busy-cycle handles of at least n channels.
func (e *execMetrics) channelCounters(n int) []*obs.Counter {
	if cs := e.channels.Load(); cs != nil && len(*cs) >= n {
		return *cs
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	var cs []*obs.Counter
	if p := e.channels.Load(); p != nil {
		cs = slices.Clip(*p) // readers keep the published slice
	}
	for ch := len(cs); ch < n; ch++ {
		cs = append(cs, e.m.CounterOf(obs.LabeledKey("pim.channel_busy_cycles", "channel", fmt.Sprintf("%02d", ch))))
	}
	e.channels.Store(&cs)
	return cs
}

// traceChannelActivity re-simulates one offloaded node's command trace
// with event recording and places each command's activity window on its
// channel's track, offset to the node's start on the shared timeline.
// Grouped workloads draw the first group's window and annotate the
// repetition count instead of materializing every repeat.
func traceChannelActivity(cfg Config, w codegen.Workload, node string, startGPU int64) error {
	st, events, err := codegen.WorkloadEvents(w, cfg.PIM, cfg.Codegen)
	if err != nil {
		return err
	}
	groups := w.GroupCount()
	for _, ev := range events {
		tid := obs.TIDChannelBase + ev.Channel
		cfg.Trace.SetThreadName(obs.PIDTimeline, tid, fmt.Sprintf("pim-ch%02d", ev.Channel))
		args := map[string]any{"node": node, "channel": ev.Channel}
		if groups > 1 {
			args["groups"] = groups // window repeats back to back per group
		}
		cfg.Trace.CompleteCycles(tid, ev.Kind.String(), "pim-cmd",
			startGPU+cfg.pimCyclesToGPU(ev.Start),
			max(cfg.pimCyclesToGPU(ev.End-ev.Start), 1), args)
	}
	// One summary span per channel covering its whole drain, so the track
	// stays readable when zoomed out.
	for ch, drain := range st.PerChannel {
		tid := obs.TIDChannelBase + ch
		busy := float64(0)
		if drain > 0 {
			busy = float64(st.PerChannelBusy[ch]) / float64(drain)
		}
		cfg.Trace.InstantCycles(tid, fmt.Sprintf("%s drain", node), "pim-channel",
			startGPU+cfg.pimCyclesToGPU(drain)*int64(groups),
			map[string]any{"busyFraction": busy, "drainCycles": drain * int64(groups)})
	}
	return nil
}

// scheduled is what the schedule keeps of a placed node for its
// consumers: its finish cycle, its device, and whether it is zero-cost.
type scheduled struct {
	end  int64
	dev  graph.Device
	zero bool
}

// mergesDevices reports whether a node's direct producers (prods, its
// inputs' positions from Index.InputProducers) span more than one device
// — the signature of an MD-DP or pipeline merge point. done is indexed
// by node position.
func mergesDevices(prods []int32, done []scheduled) bool {
	var seen [2]bool
	distinct := 0
	for _, p := range prods {
		if p < 0 {
			continue
		}
		d := 0
		if done[p].dev == graph.DevicePIM {
			d = 1
		}
		if !seen[d] {
			seen[d] = true
			distinct++
		}
	}
	return distinct > 1
}

// timePIM simulates — or recalls from the profile store under keys —
// one PIM workload, returning cycles in the PIM clock domain plus the
// command counts the energy model consumes.
func timePIM(w codegen.Workload, cfg *Config, keys profcache.PIMKeys) (profcache.Profile, error) {
	compute := func() (profcache.Profile, error) {
		st, err := codegen.TimeWorkload(w, cfg.PIM, cfg.Codegen)
		if err != nil {
			return profcache.Profile{}, err
		}
		return profcache.Profile{Cycles: st.Cycles, Counts: st.Counts, PerChannelBusy: st.PerChannelBusy}, nil
	}
	if cfg.Profiles == nil {
		return compute()
	}
	return cfg.Profiles.Do(keys.Key(w), compute)
}

// timeGPU evaluates — or recalls from the profile store under keys — the
// GPU roofline for one node, returning cycles plus the kernel description
// (whose work terms feed the report regardless of a cache hit).
func timeGPU(g *graph.Graph, n *graph.Node, cfg *Config, keys profcache.GPUKeys) (int64, gpu.Kernel, error) {
	k, err := gpu.NodeKernel(g, n, cfg.GPU)
	if err != nil {
		return 0, k, err
	}
	if cfg.Profiles == nil {
		res, err := cfg.GPU.Time(k)
		return res.Cycles, k, err
	}
	p, err := cfg.Profiles.Do(keys.Key(k), func() (profcache.Profile, error) {
		res, err := cfg.GPU.Time(k)
		if err != nil {
			return profcache.Profile{}, err
		}
		return profcache.Profile{Cycles: res.Cycles}, nil
	})
	return p.Cycles, k, err
}
