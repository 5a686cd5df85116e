// Package search implements PIMFlow's execution mode and task size search
// (paper §4.2.2, Algorithm 1). Prior to compilation, every PIM-candidate
// layer is profiled on the simulated hardware at 10% GPU/PIM split-ratio
// intervals (including full-GPU and full-PIM execution), every pipelining
// candidate subgraph is profiled at the configured stage count, and a
// dynamic program picks the optimal combination over the topologically
// sorted node sequence.
package search

import (
	"fmt"
	"math"

	"pimflow/internal/codegen"
	"pimflow/internal/gpu"
	"pimflow/internal/graph"
	"pimflow/internal/obs"
	"pimflow/internal/pim"
	"pimflow/internal/profcache"
	"pimflow/internal/runtime"
	"pimflow/internal/transform"
)

// Policy selects the offloading mechanism being evaluated (paper §5).
type Policy int

const (
	// PolicyBaseline is GPU-only execution with the full 32-channel memory.
	PolicyBaseline Policy = iota
	// PolicyNewtonPlus is baseline Newton offloading: serial full-layer
	// offload decisions, one global buffer, no GWRITE latency hiding or
	// strided GWRITE, with multi-channel command scheduling.
	PolicyNewtonPlus
	// PolicyNewtonPlusPlus adds the PIM command optimizations (four global
	// buffers with GWRITE_4, latency hiding, strided GWRITE).
	PolicyNewtonPlusPlus
	// PolicyMDDP is Newton++ plus multi-device data-parallel execution.
	PolicyMDDP
	// PolicyPipeline is Newton++ plus pipelined execution only.
	PolicyPipeline
	// PolicyPIMFlow enables the full system: MD-DP and pipelining.
	PolicyPIMFlow
)

func (p Policy) String() string {
	switch p {
	case PolicyBaseline:
		return "Baseline"
	case PolicyNewtonPlus:
		return "Newton+"
	case PolicyNewtonPlusPlus:
		return "Newton++"
	case PolicyMDDP:
		return "PIMFlow-md"
	case PolicyPipeline:
		return "PIMFlow-pl"
	case PolicyPIMFlow:
		return "PIMFlow"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Policies returns all offloading mechanisms in evaluation order.
func Policies() []Policy {
	return []Policy{PolicyBaseline, PolicyNewtonPlus, PolicyNewtonPlusPlus, PolicyMDDP, PolicyPipeline, PolicyPIMFlow}
}

// Options parameterizes the search.
type Options struct {
	Policy Policy
	// RatioStep is the MD-DP split granularity (paper: 0.1).
	RatioStep float64
	// PipelineStages is the pipeline depth (paper: 2 is optimal, Fig 15).
	PipelineStages int
	// TotalChannels is the memory's channel count (32).
	TotalChannels int
	// PIMChannels is the PIM-enabled subset (16 in the default 16+16).
	PIMChannels int
	// GPU is the base GPU model (channel count is derived per policy).
	GPU gpu.Config
	// PIMBase is the base PIM config (buffers/hiding derived per policy).
	PIMBase pim.Config
	// RefineRatio enables the auto-tuning extension sketched in the
	// paper's future work (and its 2%-interval footnote): after the
	// coarse 10% sweep, the best MD-DP ratio is locally refined at
	// RefineStep granularity within one coarse step on either side.
	RefineRatio bool
	// RefineStep is the fine search granularity (default 0.02).
	RefineStep float64
	// KeepSamples records every profiled (ratio, cycles) sample in the
	// LayerDecision, for offline analysis of the search curves (the
	// artifact's PIMFlow/layerwise profiling data). Implies NoPrune:
	// sample lists must cover the whole grid.
	KeepSamples bool
	// NoPrune disables the branch-and-bound pruning of ratio grid
	// points. Pruning never changes the selected Plan (only provably
	// non-improving probes are skipped); the switch exists for
	// measuring search cost and for equivalence tests.
	NoPrune bool
	// Verify enables the static verification layer as a debug gate: the
	// graph-IR invariant checker runs after every transformation pass in
	// Apply, and (through RuntimeConfig) the runtime lints every generated
	// PIM command trace before simulating it. A violation aborts with the
	// structured diagnostics instead of letting a malformed graph or
	// illegal trace skew the simulation. Off by default.
	Verify bool
	// Profiles optionally shares a profile store across Run calls (the
	// paper's metadata log, §4.2.2): PIM trace simulations and GPU
	// roofline timings are recalled instead of re-simulated whenever the
	// workload and device configuration fingerprints match. Nil gives
	// each Run a private store. Excluded from persisted plans.
	Profiles *profcache.Store `json:"-"`
	// Trace, when non-nil, collects observability spans: wall-clock
	// search phases and per-candidate profiling probes (annotated with
	// their profile-cache outcome), and — through RuntimeConfig — the
	// final schedule's simulated timeline. Nil disables tracing at the
	// cost of one pointer compare per site. Excluded from persisted
	// plans.
	Trace *obs.Trace `json:"-"`
	// Metrics, when non-nil, receives search counters (probes, cache
	// hits/misses, probes per layer) and, through RuntimeConfig, the
	// runtime's execution gauges. Excluded from persisted plans.
	Metrics *obs.Metrics `json:"-"`
}

// DefaultOptions returns the paper's configuration for the given policy.
func DefaultOptions(p Policy) Options {
	return Options{
		Policy:         p,
		RatioStep:      0.1,
		PipelineStages: 2,
		TotalChannels:  32,
		PIMChannels:    16,
		GPU:            gpu.DefaultConfig(),
		PIMBase:        pim.DefaultConfig(),
	}
}

// WithResources returns a copy of the options compiled against a smaller
// (or larger) slice of the machine: total memory channels and the
// PIM-enabled subset. The serving layer uses this to compile models whose
// channel-group leases leave room for other models to run concurrently.
func (o Options) WithResources(totalChannels, pimChannels int) Options {
	o.TotalChannels = totalChannels
	o.PIMChannels = pimChannels
	return o
}

// Validate checks the split granularity and the channel split: an
// offloading policy needs PIM channels and at least one GPU channel.
func (o Options) Validate() error {
	if o.RatioStep <= 0 || o.RatioStep >= 1 {
		return fmt.Errorf("search: RatioStep %v outside (0,1)", o.RatioStep)
	}
	if (o.PIMChannels < 1 || o.PIMChannels >= o.TotalChannels) && o.allowOffload() {
		return fmt.Errorf("search: PIMChannels %d invalid for %d total", o.PIMChannels, o.TotalChannels)
	}
	return nil
}

// GPUChannels returns the channels visible to the GPU under this policy.
func (o Options) GPUChannels() int {
	if o.Policy == PolicyBaseline {
		return o.TotalChannels
	}
	return o.TotalChannels - o.PIMChannels
}

// RuntimeConfig derives the runtime configuration for this policy.
func (o Options) RuntimeConfig() runtime.Config {
	cfg := runtime.DefaultConfig()
	cfg.GPU = o.GPU.WithChannels(o.GPUChannels())
	p := o.PIMBase
	p.Channels = o.PIMChannels
	switch o.Policy {
	case PolicyNewtonPlus:
		p.GlobalBufs = 1
		p.GWriteLatencyHiding = false
		cfg.Codegen = codegen.Opts{Granularity: codegen.GranComp, StridedGWrite: false}
	default:
		cfg.Codegen = codegen.DefaultOpts()
	}
	cfg.PIM = p
	cfg.Profiles = o.Profiles
	cfg.Trace = o.Trace
	cfg.Metrics = o.Metrics
	cfg.VerifyTraces = o.Verify
	return cfg
}

func (o Options) allowOffload() bool  { return o.Policy != PolicyBaseline }
func (o Options) allowMDDP() bool     { return o.Policy == PolicyMDDP || o.Policy == PolicyPIMFlow }
func (o Options) allowPipeline() bool { return o.Policy == PolicyPipeline || o.Policy == PolicyPIMFlow }

// RatioSample is one profiled MD-DP operating point.
type RatioSample struct {
	// GPURatio is the fraction of work on GPU.
	GPURatio float64
	// Cycles is the profiled mixed execution time.
	Cycles int64
}

// LayerDecision is the chosen execution mode for one node.
type LayerDecision struct {
	Node string
	Op   graph.OpType
	// PIMCandidate reports whether the node could offload at all.
	PIMCandidate bool
	// GPURatio is the fraction of work on GPU: 0 full offload, 1 full GPU,
	// otherwise MD-DP.
	GPURatio float64
	// GPUTime and PIMTime are the profiled serial times (cycles).
	GPUTime, PIMTime int64
	// BestTime is the chosen mode's profiled time.
	BestTime int64
	// Samples holds every profiled ratio point when Options.KeepSamples
	// is set.
	Samples []RatioSample
}

// Mode returns the decision's execution mode.
func (d LayerDecision) Mode() graph.ExecMode {
	if !d.PIMCandidate || d.GPURatio >= 1 {
		return graph.ModeSerial
	}
	if d.GPURatio <= 0 {
		return graph.ModeSerial
	}
	return graph.ModeMDDP
}

// Device returns the serial-mode device.
func (d LayerDecision) Device() graph.Device {
	if d.PIMCandidate && d.GPURatio <= 0 {
		return graph.DevicePIM
	}
	return graph.DeviceGPU
}

// PipelineDecision records one profiled pipelining candidate.
type PipelineDecision struct {
	Candidate transform.Candidate
	Stages    int
	// StartIdx and Len locate the chain in the topological node order.
	StartIdx, Len int
	// Time is the profiled pipelined execution time (cycles).
	Time int64
	// SerialBest is the summed best per-node time of the covered nodes.
	SerialBest int64
	// Chosen reports whether the DP selected this candidate.
	Chosen bool
}

// Plan is the search result: everything Apply needs to transform the graph
// plus the profile data the evaluation figures report.
type Plan struct {
	Model     string
	Policy    Policy
	Options   Options
	Decisions []LayerDecision
	Pipelines []PipelineDecision
	// TotalProfiled is the DP objective: the summed profiled time of the
	// chosen partition. It is neither a lower nor an upper bound on the
	// executed schedule: the runtime charges synchronization and PIM-to-GPU
	// movement that the objective does not price, and it overlaps nodes
	// that the objective sums (TestPlannedVsExecutedGolden pins both).
	TotalProfiled int64
	// Cache reports this Run's profile-store activity (hits, misses,
	// singleflight-shared lookups) as a delta over the Run, so a shared
	// store still yields per-compilation numbers.
	Cache profcache.Stats
}

// RatioHistogram returns the Table 2 distribution: for each GPU split
// ratio bucket 0,10,...,100, the fraction of PIM-candidate layers that
// chose it. Pipelined layers are excluded (they have no ratio).
func (p *Plan) RatioHistogram() map[int]float64 {
	pipelined := map[string]bool{}
	for _, pd := range p.Pipelines {
		if pd.Chosen {
			for _, n := range pd.Candidate.Nodes {
				pipelined[n] = true
			}
		}
	}
	hist := map[int]float64{}
	total := 0
	for _, d := range p.Decisions {
		if !d.PIMCandidate || pipelined[d.Node] {
			continue
		}
		bucket := int(math.Round(d.GPURatio * 10))
		hist[bucket*10]++
		total++
	}
	if total > 0 {
		for k := range hist {
			hist[k] /= float64(total)
		}
	}
	return hist
}
