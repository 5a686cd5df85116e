package load

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// exactQuantile is the reference the sketch approximates: the same
// nearest-rank convention as percentile().
func exactQuantile(vals []int64, q float64) int64 {
	sorted := append([]int64(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return percentile(sorted, q)
}

func TestSketchExactWhenSmall(t *testing.T) {
	s := NewQuantileSketch(256)
	rng := rand.New(rand.NewSource(3))
	var vals []int64
	for i := 0; i < 200; i++ { // below k: no compaction, exact answers
		v := int64(rng.Intn(100_000))
		vals = append(vals, v)
		s.Add(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		if got, want := s.Quantile(q), exactQuantile(vals, q); got != want {
			t.Errorf("q=%v: sketch %d, exact %d (uncompacted sketches must be exact)", q, got, want)
		}
	}
	if s.Min() != exactQuantile(vals, 0) || s.Max() != exactQuantile(vals, 1) {
		t.Errorf("min/max %d/%d not exact", s.Min(), s.Max())
	}
}

// TestSketchAccuracy bounds the rank error on a skewed stream: the
// sketch's q-quantile must lie between the exact quantiles at q±0.03.
func TestSketchAccuracy(t *testing.T) {
	s := NewQuantileSketch(256)
	rng := rand.New(rand.NewSource(7))
	const n = 50_000
	vals := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		// Heavy-tailed: mostly small with occasional huge values, the
		// shape of a latency distribution.
		v := int64(rng.ExpFloat64() * 10_000)
		vals = append(vals, v)
		s.Add(v)
	}
	sorted := append([]int64(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, q := range []float64{0.25, 0.5, 0.9, 0.99, 0.999} {
		got := s.Quantile(q)
		lo := percentile(sorted, q-0.03)
		hi := percentile(sorted, q+0.03)
		if got < lo || got > hi {
			t.Errorf("q=%v: sketch %d outside exact rank band [%d, %d]", q, got, lo, hi)
		}
	}
	if s.Count() != n || s.Max() != sorted[n-1] {
		t.Errorf("count/max not exact: %d/%d", s.Count(), s.Max())
	}
}

// TestSketchDeterministic: same stream, same sketch — the parity-bit
// compaction has no randomness to diverge on.
func TestSketchDeterministic(t *testing.T) {
	build := func() *QuantileSketch {
		s := NewQuantileSketch(64)
		rng := rand.New(rand.NewSource(12))
		for i := 0; i < 30_000; i++ {
			s.Add(int64(rng.Intn(1_000_000)))
		}
		return s
	}
	a, b := build(), build()
	if !reflect.DeepEqual(a.levels, b.levels) {
		t.Fatal("identical streams produced different sketch states")
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		if a.Quantile(q) != b.Quantile(q) {
			t.Fatalf("q=%v differs between identical sketches", q)
		}
	}
}

// TestSketchBoundedMemory pins the point of the sketch: retained samples
// grow with log(n), not n.
func TestSketchBoundedMemory(t *testing.T) {
	s := NewQuantileSketch(128)
	for i := 0; i < 500_000; i++ {
		s.Add(int64(i * 7 % 1_000_003))
	}
	// ~log2(n/k) levels of at most k samples each.
	if got, limit := s.Samples(), 128*16; got > limit {
		t.Fatalf("sketch holds %d samples for 500k observations (limit %d)", got, limit)
	}
}

func TestSketchEdgeCases(t *testing.T) {
	s := NewQuantileSketch(0) // default k
	if s.Quantile(0.5) != 0 || s.Max() != 0 || s.Min() != 0 {
		t.Error("empty sketch must answer zero")
	}
	s.Add(42)
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := s.Quantile(q); got != 42 {
			t.Errorf("single-value sketch q=%v = %d, want 42", q, got)
		}
	}
}

// TestReplayStreamStats runs the same trace through the exact and the
// streaming collectors: the streaming report must be deterministic,
// agree exactly on counts, max, and mean, track the exact percentiles
// closely, and drop the full-record sections.
func TestReplayStreamStats(t *testing.T) {
	sc := toyScenario(23, 3000, "poisson")
	reqs, err := Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	run := func(stream bool) Report {
		s := sc
		s.StreamStats = stream
		srv := newScenarioServer(t, s)
		rep, err := Replay(srv, s, reqs)
		if err != nil {
			t.Fatal(err)
		}
		return stripWall(rep)
	}
	exact := run(false)
	a, b := run(true), run(true)
	if !reportsEqual(a, b) {
		t.Fatalf("streaming replays diverged:\n%+v\n%+v", a, b)
	}
	if a.Served != exact.Served || a.Shed != exact.Shed || a.SLOMiss != exact.SLOMiss {
		t.Fatalf("streaming changed request accounting: %+v vs %+v", a, exact)
	}
	if a.MaxLatency != exact.MaxLatency || a.MeanLatency != exact.MeanLatency {
		t.Fatalf("max/mean must stay exact: %+v vs %+v", a, exact)
	}
	if a.Stages != nil || a.Attributed != nil {
		t.Fatal("streaming mode must drop the full-record sections")
	}
	// Percentiles within a tight relative band of the exact values.
	within := func(got, want int64) bool {
		d := got - want
		if d < 0 {
			d = -d
		}
		return float64(d) <= 0.05*float64(want)+1
	}
	if !within(a.P50, exact.P50) || !within(a.P99, exact.P99) || !within(a.P999, exact.P999) {
		t.Fatalf("sketch percentiles too far from exact:\nstream %+v\nexact  %+v", a, exact)
	}
	for cls, cs := range exact.Classes {
		as := a.Classes[cls]
		if as.Served != cs.Served || as.MaxCycle != cs.MaxCycle {
			t.Fatalf("class %q accounting differs: %+v vs %+v", cls, as, cs)
		}
		if !within(as.P99, cs.P99) {
			t.Fatalf("class %q p99 %d too far from exact %d", cls, as.P99, cs.P99)
		}
	}
}

// Min returns the exact minimum (0 on an empty sketch).
func (s *QuantileSketch) Min() int64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}
