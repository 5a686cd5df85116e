// Package load is the trace-driven workload harness for the serving
// stack: open-loop arrival generators (Poisson, diurnal, bursty) over a
// Zipf model-popularity distribution, and a deterministic virtual-time
// replay driver over serve.VirtualQueue.
//
// Everything is seeded: the same Scenario produces a byte-identical
// trace, and the deterministic replay of that trace reports identical
// latency percentiles on every run — the property the benchmark suite
// and the regression tests pin.
package load

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// ModelLoad is one served model instance in a scenario.
type ModelLoad struct {
	// Name is the serving name; Model the zoo model compiled under
	// Policy against a TotalChannels/PIMChannels slice of the machine.
	Name          string `json:"name"`
	Model         string `json:"model"`
	Policy        string `json:"policy,omitempty"`
	TotalChannels int    `json:"totalChannels,omitempty"`
	PIMChannels   int    `json:"pimChannels,omitempty"`
	// SLO names the model's latency class; MaxBatch and WindowCycles set
	// its continuous-batching policy (see serve.BatchPolicy).
	SLO          string `json:"slo,omitempty"`
	MaxBatch     int    `json:"maxBatch,omitempty"`
	WindowCycles int64  `json:"windowCycles,omitempty"`
	// Weight overrides the model's Zipf popularity (0: rank-based
	// 1/rank^s over the scenario's model order).
	Weight float64 `json:"weight,omitempty"`
}

// Scenario describes one reproducible workload.
type Scenario struct {
	Name string `json:"name"`
	// Seed drives every random draw; identical seeds give identical
	// traces.
	Seed int64 `json:"seed"`
	// Requests is the trace length.
	Requests int `json:"requests"`
	// Process selects the arrival process: "poisson" (homogeneous),
	// "diurnal" (sinusoidal non-homogeneous Poisson, Lewis-Shedler
	// thinning), or "bursty" (two-state MMPP).
	Process string `json:"process"`
	// RatePerMCycle is the mean arrival rate in requests per million
	// virtual cycles (the base rate for diurnal and bursty).
	RatePerMCycle float64 `json:"ratePerMCycle"`
	// DiurnalAmplitude in [0,1) scales the sinusoidal rate swing;
	// DiurnalPeriod is the cycle length of one "day".
	DiurnalAmplitude float64 `json:"diurnalAmplitude,omitempty"`
	DiurnalPeriod    int64   `json:"diurnalPeriod,omitempty"`
	// BurstFactor multiplies the rate inside a burst; BurstDwell is the
	// mean residence (cycles) in each MMPP state.
	BurstFactor float64 `json:"burstFactor,omitempty"`
	BurstDwell  int64   `json:"burstDwell,omitempty"`
	// ZipfS is the Zipf popularity exponent over Models rank order.
	ZipfS float64 `json:"zipfS,omitempty"`
	// Models are the served instances requests are drawn over.
	Models []ModelLoad `json:"models"`
	// QueueDepth bounds the admission queue; Admission is "reject" or
	// "shed-oldest" (open-loop replay cannot block).
	QueueDepth int    `json:"queueDepth,omitempty"`
	Admission  string `json:"admission,omitempty"`
	// StreamStats swaps the replay's exact latency collection for a
	// deterministic fixed-size quantile sketch (see QuantileSketch):
	// memory stays bounded by the sketch instead of growing with the
	// trace, percentiles gain a small rank error, and the per-request
	// report sections (Stages, Attributed) are dropped — they need full
	// records. Exact collection stays the default.
	StreamStats bool `json:"streamStats,omitempty"`
}

func (s Scenario) withDefaults() Scenario {
	if s.Requests <= 0 {
		s.Requests = 10_000
	}
	if s.Process == "" {
		s.Process = "poisson"
	}
	if s.RatePerMCycle <= 0 {
		s.RatePerMCycle = 1
	}
	if s.DiurnalPeriod <= 0 {
		s.DiurnalPeriod = 5_000_000
	}
	if s.BurstFactor <= 0 {
		s.BurstFactor = 8
	}
	if s.BurstDwell <= 0 {
		s.BurstDwell = 1_000_000
	}
	if s.ZipfS <= 0 {
		s.ZipfS = 1
	}
	if s.QueueDepth <= 0 {
		s.QueueDepth = 64
	}
	if s.Admission == "" {
		s.Admission = "shed-oldest"
	}
	return s
}

// Request is one trace entry: a model invocation at a virtual cycle.
type Request struct {
	// Cycle is the virtual arrival stamp; traces are sorted and strictly
	// increasing.
	Cycle int64 `json:"cycle"`
	// Model is the serving name of the invoked model.
	Model string `json:"model"`
}

// Generate produces the scenario's request trace: arrival cycles from
// the configured process, models from the Zipf popularity draw, all from
// one seeded PRNG so the trace is a pure function of the scenario.
func Generate(sc Scenario) ([]Request, error) {
	sc = sc.withDefaults()
	if len(sc.Models) == 0 {
		return nil, fmt.Errorf("load: scenario %q has no models", sc.Name)
	}
	arrive, err := arrivalProcess(sc)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(sc.Seed))
	cum := cumulativeWeights(sc)
	reqs := make([]Request, sc.Requests)
	var t int64
	for i := range reqs {
		t += arrive(rng)
		reqs[i] = Request{Cycle: t, Model: pickModel(rng, sc.Models, cum)}
	}
	return reqs, nil
}

// arrivalProcess returns the inter-arrival draw (>= 1 cycle) for the
// scenario's process. The draw consumes the shared PRNG, so the whole
// trace is one deterministic stream.
func arrivalProcess(sc Scenario) (func(*rand.Rand) int64, error) {
	rate := sc.RatePerMCycle / 1e6 // requests per cycle
	switch sc.Process {
	case "poisson":
		return func(rng *rand.Rand) int64 {
			return atLeastOne(rng.ExpFloat64() / rate)
		}, nil
	case "diurnal":
		// Lewis-Shedler thinning against the peak rate: candidates from a
		// homogeneous process at rate*(1+A), accepted with probability
		// lambda(t)/peak where lambda swings sinusoidally over the period.
		amp := sc.DiurnalAmplitude
		if amp <= 0 {
			amp = 0.5
		}
		if amp >= 1 {
			amp = 0.99
		}
		peak := rate * (1 + amp)
		period := float64(sc.DiurnalPeriod)
		var clock float64
		return func(rng *rand.Rand) int64 {
			start := clock
			for {
				clock += rng.ExpFloat64() / peak
				lambda := rate * (1 + amp*math.Sin(2*math.Pi*clock/period))
				if rng.Float64()*peak <= lambda {
					d := atLeastOne(clock - start)
					return d
				}
			}
		}, nil
	case "bursty":
		// Two-state Markov-modulated Poisson process: a calm state at the
		// base rate and a burst state at BurstFactor x, with exponential
		// dwell times.
		burst := false
		var dwell float64
		return func(rng *rand.Rand) int64 {
			var total float64
			for {
				if dwell <= 0 {
					dwell = rng.ExpFloat64() * float64(sc.BurstDwell)
					burst = !burst
				}
				r := rate
				if burst {
					r *= sc.BurstFactor
				}
				d := rng.ExpFloat64() / r
				if d <= dwell {
					dwell -= d
					return atLeastOne(total + d)
				}
				// The draw outlives the state: consume the dwell and redraw
				// in the next state.
				total += dwell
				dwell = 0
			}
		}, nil
	}
	return nil, fmt.Errorf("load: unknown arrival process %q (poisson, diurnal, bursty)", sc.Process)
}

// atLeastOne rounds a cycle delta up to a whole positive cycle so traces
// are strictly increasing.
func atLeastOne(d float64) int64 {
	if c := int64(math.Round(d)); c > 1 {
		return c
	}
	return 1
}

// cumulativeWeights resolves the model popularity distribution:
// explicit weights where set, Zipf 1/rank^s otherwise.
func cumulativeWeights(sc Scenario) []float64 {
	cum := make([]float64, len(sc.Models))
	var total float64
	for i, m := range sc.Models {
		w := m.Weight
		if w <= 0 {
			w = 1 / math.Pow(float64(i+1), sc.ZipfS)
		}
		total += w
		cum[i] = total
	}
	return cum
}

func pickModel(rng *rand.Rand, ms []ModelLoad, cum []float64) string {
	u := rng.Float64() * cum[len(cum)-1]
	i := sort.SearchFloat64s(cum, u)
	if i >= len(ms) {
		i = len(ms) - 1
	}
	return ms[i].Name
}

// Builtin returns a named preset scenario ("poisson", "diurnal",
// "bursty"): two mobilenet-v2 instances compiled onto disjoint 16/8
// channel slices, a gold and a bronze SLO class, continuous batching
// with a virtual window, and rates chosen so the diurnal peaks and the
// bursts overload the machine enough to exercise shedding.
func Builtin(name string) (Scenario, error) {
	base := Scenario{
		Name:          name,
		Seed:          1,
		Requests:      10_000,
		RatePerMCycle: 4,
		ZipfS:         1,
		QueueDepth:    64,
		Admission:     "shed-oldest",
		Models: []ModelLoad{
			{Name: "mobilenet-gold", Model: "mobilenet-v2", Policy: "PIMFlow",
				TotalChannels: 16, PIMChannels: 8, SLO: "gold", MaxBatch: 8, WindowCycles: 200_000},
			{Name: "mobilenet-bronze", Model: "mobilenet-v2", Policy: "PIMFlow",
				TotalChannels: 16, PIMChannels: 8, SLO: "bronze", MaxBatch: 8, WindowCycles: 200_000},
		},
	}
	switch name {
	case "poisson":
		base.Process = "poisson"
	case "diurnal":
		base.Process = "diurnal"
		base.DiurnalAmplitude = 0.8
		base.DiurnalPeriod = 5_000_000
	case "bursty":
		base.Process = "bursty"
		base.RatePerMCycle = 3
		base.BurstFactor = 8
		base.BurstDwell = 1_000_000
	default:
		return Scenario{}, fmt.Errorf("load: unknown builtin scenario %q (poisson, diurnal, bursty)", name)
	}
	return base, nil
}
