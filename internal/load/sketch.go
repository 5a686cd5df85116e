package load

import (
	"math"
	"sort"
)

// QuantileSketch is a deterministic KLL-style streaming quantile sketch:
// a ladder of fixed-width compactors where level l holds samples of
// weight 2^l. When a level fills, it is sorted and every other sample is
// promoted to the next level, alternating the surviving parity between
// compactions instead of flipping a coin — the classic KLL randomness is
// replaced by a per-level parity bit so the same value stream always
// produces the same sketch, matching the replay driver's determinism
// contract.
//
// Memory is O(k log(n/k)) for n observations — a few levels of k values
// each — and the rank error of Quantile is O(log(n/k) / k): for the
// default k=256 and a million observations, well under one percentile.
// Min, Max, Count, and Sum are tracked exactly.
type QuantileSketch struct {
	k      int
	levels [][]int64
	parity []bool
	n      int64
	sum    int64
	min    int64
	max    int64
}

// defaultSketchK balances memory (a few KB) against rank error
// (~log2(n/k)/k, a fraction of a percentile at replay scales).
const defaultSketchK = 256

// NewQuantileSketch returns an empty sketch with compactor width k
// (minimum 8; non-positive selects the default 256).
func NewQuantileSketch(k int) *QuantileSketch {
	if k <= 0 {
		k = defaultSketchK
	}
	if k < 8 {
		k = 8
	}
	return &QuantileSketch{k: k, min: math.MaxInt64, max: math.MinInt64}
}

// Add observes one value.
func (s *QuantileSketch) Add(v int64) {
	s.n++
	s.sum += v
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	if len(s.levels) == 0 {
		s.levels = append(s.levels, make([]int64, 0, s.k))
		s.parity = append(s.parity, false)
	}
	s.levels[0] = append(s.levels[0], v)
	for l := 0; l < len(s.levels) && len(s.levels[l]) >= s.k; l++ {
		s.compact(l)
	}
}

// compact halves level l into level l+1: sort, keep one parity class,
// flip the parity for next time. Each survivor's weight doubles.
func (s *QuantileSketch) compact(l int) {
	lv := s.levels[l]
	sort.Slice(lv, func(i, j int) bool { return lv[i] < lv[j] })
	if l+1 == len(s.levels) {
		s.levels = append(s.levels, make([]int64, 0, s.k))
		s.parity = append(s.parity, false)
	}
	start := 0
	if s.parity[l] {
		start = 1
	}
	s.parity[l] = !s.parity[l]
	for i := start; i < len(lv); i += 2 {
		s.levels[l+1] = append(s.levels[l+1], lv[i])
	}
	s.levels[l] = lv[:0]
}

// Count returns the number of observed values.
func (s *QuantileSketch) Count() int64 { return s.n }

// Sum returns the exact sum of observed values.
func (s *QuantileSketch) Sum() int64 { return s.sum }

// Max returns the exact maximum (0 on an empty sketch).
func (s *QuantileSketch) Max() int64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// Samples returns how many values the sketch currently stores, for
// memory accounting — bounded regardless of Count.
func (s *QuantileSketch) Samples() int {
	total := 0
	for _, lv := range s.levels {
		total += len(lv)
	}
	return total
}

// Quantile returns an approximation of the q-quantile under the same
// nearest-rank convention as the exact path: the smallest retained value
// whose cumulative weight reaches ceil(q*n). Exact for sketches that
// never compacted (n < k).
func (s *QuantileSketch) Quantile(q float64) int64 {
	if s.n == 0 {
		return 0
	}
	if q <= 0 {
		return s.min
	}
	if q >= 1 {
		return s.max
	}
	type wv struct {
		v int64
		w int64
	}
	var all []wv
	for l, lv := range s.levels {
		w := int64(1) << l
		for _, v := range lv {
			all = append(all, wv{v, w})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	// Compacted weights sum to less than n (each compaction drops up to
	// one sample's weight); rank against the retained mass so q=0.999
	// still lands inside the ladder.
	var mass int64
	for _, e := range all {
		mass += e.w
	}
	rank := int64(math.Ceil(q * float64(mass)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for _, e := range all {
		cum += e.w
		if cum >= rank {
			return e.v
		}
	}
	return s.max
}

// streamStats is the replay driver's bounded-memory statistics
// collector: one sketch overall plus one per SLO class, replacing the
// unbounded latRec slices when Scenario.StreamStats is set.
type streamStats struct {
	k       int
	overall *QuantileSketch
	classes map[string]*QuantileSketch
}

func newStreamStats(k int) *streamStats {
	return &streamStats{k: k, overall: NewQuantileSketch(k), classes: map[string]*QuantileSketch{}}
}

func (st *streamStats) add(class string, lat int64) {
	st.overall.Add(lat)
	cs := st.classes[class]
	if cs == nil {
		cs = NewQuantileSketch(st.k)
		st.classes[class] = cs
	}
	cs.Add(lat)
}

// finish fills the report from the sketches. The per-request sections
// (Stages, Attributed) need full records and stay nil in streaming mode;
// everything else matches the exact path up to the sketch's rank error,
// with Max, Mean, and counts exact.
//
//pimflow:deterministic
func (st *streamStats) finish(rep *Report, batchSum, makespan int64) {
	o := st.overall
	rep.P50 = o.Quantile(0.50)
	rep.P99 = o.Quantile(0.99)
	rep.P999 = o.Quantile(0.999)
	rep.MaxLatency = o.Max()
	if n := o.Count(); n > 0 {
		rep.MeanLatency = float64(o.Sum()) / float64(n)
		rep.MeanBatch = float64(batchSum) / float64(n)
	}
	rep.MakespanCycles = makespan
	for _, cls := range sortedModels(st.classes) {
		s := st.classes[cls]
		cs := rep.Classes[cls]
		cs.P50 = s.Quantile(0.50)
		cs.P99 = s.Quantile(0.99)
		cs.P999 = s.Quantile(0.999)
		cs.MaxCycle = s.Max()
		rep.Classes[cls] = cs
	}
	if rep.WallSeconds > 0 {
		rep.ReqPerSec = float64(rep.Served) / rep.WallSeconds
	}
}
