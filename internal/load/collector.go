package load

import (
	"pimflow/internal/serve"
)

// AutoStreamRequests is the request count at which the replay drivers
// switch from exact per-request latency collection to the bounded-memory
// quantile sketch on their own: multi-million-request fleet traces would
// otherwise hold one latRec per served request (and one int64 per class)
// for the whole replay. Below the threshold the exact path keeps the
// per-request report sections (Stages, Attributed); Scenario.StreamStats
// forces streaming at any size.
const AutoStreamRequests = 200_000

// Collector accumulates served-response statistics for one replay and
// folds them into a Report. It has two modes with one interface: the
// exact mode keeps every latency record (percentiles are exact and the
// per-request sections are available), the streaming mode keeps a
// fixed-size deterministic sketch (see QuantileSketch). Both replay
// drivers — load.Replay and the fleet replay — feed one of these through
// Report.Record, so the auto-switch policy lives in exactly one place.
//
// A Collector is not safe for concurrent use; a caller observing from
// several goroutines serializes its calls under its own lock.
type Collector struct {
	stream   *streamStats
	recs     []latRec
	classLat map[string][]int64
	batchSum int64
	makespan int64
}

// NewCollector returns the collector for a replay of `requests` trace
// entries: streaming when the scenario demands it (StreamStats) or when
// the trace is at least AutoStreamRequests long, exact otherwise.
func NewCollector(sc Scenario, requests int) *Collector {
	if sc.StreamStats || requests >= AutoStreamRequests {
		return &Collector{stream: newStreamStats(defaultSketchK)}
	}
	// A replay serves at most one response per trace request, so the
	// record log never regrows.
	return &Collector{recs: make([]latRec, 0, requests), classLat: map[string][]int64{}}
}

// Samples returns how many latency values the collector currently holds
// in memory — bounded in streaming mode, one per served request in exact
// mode.
func (c *Collector) Samples() int {
	if c.stream != nil {
		n := c.stream.overall.Samples()
		for _, s := range c.stream.classes {
			n += s.Samples()
		}
		return n
	}
	return len(c.recs)
}

// Observe folds one served response into the statistics.
func (c *Collector) Observe(resp *serve.InferResponse) {
	c.batchSum += int64(resp.BatchSize)
	if resp.EndCycle > c.makespan {
		c.makespan = resp.EndCycle
	}
	if c.stream != nil {
		c.stream.add(resp.SLOClass, resp.LatencyCycles)
		return
	}
	c.recs = append(c.recs, recOf(resp))
	c.classLat[resp.SLOClass] = append(c.classLat[resp.SLOClass], resp.LatencyCycles)
}

// Finish folds the collected statistics into the report: percentiles,
// mean, makespan, per-class slices, and — in exact mode only — the
// per-stage distributions and attributed percentile splits.
func (c *Collector) Finish(rep *Report) {
	if c.stream != nil {
		c.stream.finish(rep, c.batchSum, c.makespan)
		return
	}
	finishReport(rep, c.recs, c.classLat, c.batchSum, c.makespan)
}
