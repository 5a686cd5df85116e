package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestNilMetricsIsSafe(t *testing.T) {
	var m *Metrics
	m.Inc("a")
	m.Add("a", 5)
	m.Set("g", 1)
	m.Observe("h", 2)
	if m.Counter("a") != 0 || m.Gauge("g") != 0 {
		t.Error("nil metrics returned non-zero")
	}
	if s := m.Snapshot(); s.Counters != nil || s.Gauges != nil || s.Histograms != nil {
		t.Error("nil metrics snapshot not empty")
	}
	if err := m.WriteJSON(&bytes.Buffer{}); err == nil {
		t.Error("nil metrics WriteJSON should error")
	}
}

func TestCountersGaugesHistograms(t *testing.T) {
	m := NewMetrics()
	m.Inc("sims")
	m.Add("sims", 2)
	m.Set("busy", 0.75)
	m.Set("busy", 0.5) // last write wins
	for _, v := range []float64{1, 2, 3, 4} {
		m.Observe("probes", v)
	}
	if got := m.Counter("sims"); got != 3 {
		t.Errorf("counter = %d, want 3", got)
	}
	if got := m.Gauge("busy"); got != 0.5 {
		t.Errorf("gauge = %v, want 0.5", got)
	}
	s := m.Snapshot()
	h := s.Histograms["probes"]
	if h.Count != 4 || h.Sum != 10 || h.Min != 1 || h.Max != 4 || h.Mean != 2.5 {
		t.Errorf("histogram summary %+v", h)
	}
	// 1 -> <=2^0, 2 -> <=2^1, 3 and 4 -> <=2^2.
	if h.Buckets["<=2^0"] != 1 || h.Buckets["<=2^1"] != 1 || h.Buckets["<=2^2"] != 2 {
		t.Errorf("histogram buckets %v", h.Buckets)
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{0, nonPositive}, {-3, nonPositive}, {math.NaN(), nonPositive},
		{math.SmallestNonzeroFloat64, -1074}, {0.02, -5}, {0.3, -1}, {0.5, -1}, {0.7, 0},
		{1, 0}, {2, 1}, {3, 2}, {1024, 10}, {1025, 11},
		{math.MaxFloat64, 1024}, {math.Inf(1), nonPositive},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

// Every power of two 2^k is the top of bucket k, and the floats on
// either side of it fall in buckets k and k+1. A key rounded up from
// math.Log2 files the float just above 16, and the integer 2^49+1, one
// bucket too low.
func TestBucketOfPowerOfTwoEdges(t *testing.T) {
	for k := -1074; k <= 1023; k++ {
		p := math.Ldexp(1, k)
		below, above := math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1))
		if got := bucketOf(p); got != k {
			t.Fatalf("bucketOf(2^%d) = %d, want %d", k, got, k)
		}
		if got := bucketOf(above); got != k+1 {
			t.Fatalf("bucketOf(%v), just above 2^%d, = %d, want %d", above, k, got, k+1)
		}
		if below > math.Ldexp(1, k-1) { // not itself 2^(k-1), as at 2^-1073
			if got := bucketOf(below); got != k {
				t.Fatalf("bucketOf(%v), just below 2^%d, = %d, want %d", below, k, got, k)
			}
		}
	}
	if got := bucketOf(1<<49 + 1); got != 50 {
		t.Fatalf("bucketOf(2^49+1) = %d, want 50", got)
	}
}

func TestMetricsJSONDeterministic(t *testing.T) {
	build := func() []byte {
		m := NewMetrics()
		m.Add("b", 2)
		m.Add("a", 1)
		m.Set("z", 3)
		m.Observe("h", 7)
		var buf bytes.Buffer
		if err := m.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	one, two := build(), build()
	if !bytes.Equal(one, two) {
		t.Error("identical registries serialized differently")
	}
	var s Snapshot
	if err := json.Unmarshal(one, &s); err != nil {
		t.Fatalf("metrics dump is not valid JSON: %v", err)
	}
	if s.Counters["a"] != 1 || s.Counters["b"] != 2 || s.Gauges["z"] != 3 {
		t.Errorf("round-trip mismatch: %+v", s)
	}
}

func TestMetricsConcurrentUse(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.Inc("n")
				m.Observe("h", float64(i))
			}
		}()
	}
	wg.Wait()
	if got := m.Counter("n"); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if h := m.Snapshot().Histograms["h"]; h.Count != 8000 {
		t.Errorf("histogram count = %d, want 8000", h.Count)
	}
}

func TestHistogramInfinityFreeOnEmpty(t *testing.T) {
	m := NewMetrics()
	m.Observe("h", 5)
	h := m.Snapshot().Histograms["h"]
	if math.IsInf(h.Min, 0) || math.IsInf(h.Max, 0) {
		t.Errorf("min/max not finite after observation: %+v", h)
	}
}

func TestWriteTextExposition(t *testing.T) {
	m := NewMetrics()
	m.Add("serve.requests", 3)
	m.Set("serve.queue_depth", 2)
	m.Observe("serve.latency_cycles", 10)
	m.Observe("serve.latency_cycles", 1000)
	m.Add("pim.channel_busy_cycles[02]", 7)

	var b strings.Builder
	if err := m.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE pimflow_serve_requests counter\npimflow_serve_requests 3\n",
		"# TYPE pimflow_serve_queue_depth gauge\npimflow_serve_queue_depth 2\n",
		"pimflow_serve_latency_cycles_count 2\n",
		"pimflow_serve_latency_cycles_sum 1010\n",
		`pimflow_serve_latency_cycles_bucket{le="<=2^10"} 1`,
		"pimflow_pim_channel_busy_cycles_02 7\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Deterministic output for identical registries.
	var b2 strings.Builder
	if err := m.WriteText(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != out {
		t.Fatal("WriteText not deterministic")
	}
}

func TestWriteTextNil(t *testing.T) {
	var m *Metrics
	if err := m.WriteText(io.Discard); err == nil {
		t.Fatal("nil metrics should error")
	}
}

func TestLabeledKeyRoundTrip(t *testing.T) {
	key := LabeledKey("serve.stage_cycles", "model", "mobilenet-gold", "slo", "gold", "stage", "lease_wait")
	if key != "serve.stage_cycles{model=mobilenet-gold,slo=gold,stage=lease_wait}" {
		t.Fatalf("key = %q", key)
	}
	base, labels := SplitLabeledKey(key)
	if base != "serve.stage_cycles" || len(labels) != 3 ||
		labels[0] != [2]string{"model", "mobilenet-gold"} ||
		labels[2] != [2]string{"stage", "lease_wait"} {
		t.Fatalf("split = %q %v", base, labels)
	}
	// Unlabeled keys pass through.
	if base, labels := SplitLabeledKey("serve.requests"); base != "serve.requests" || labels != nil {
		t.Fatalf("unlabeled split = %q %v", base, labels)
	}
	if LabeledKey("plain") != "plain" {
		t.Fatal("LabeledKey without pairs should be the bare name")
	}
}

func TestWriteTextLabeledSeries(t *testing.T) {
	m := NewMetrics()
	m.Observe(LabeledKey("serve.stage_cycles", "model", "toy-gold", "stage", "execute"), 100)
	m.Observe(LabeledKey("serve.stage_cycles", "model", "toy-gold", "stage", "lease_wait"), 900)
	m.Inc(LabeledKey("serve.outcome", "outcome", "shed"))

	var b strings.Builder
	if err := m.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`pimflow_serve_stage_cycles_count{model="toy-gold",stage="execute"} 1`,
		`pimflow_serve_stage_cycles_bucket{model="toy-gold",stage="lease_wait",le="<=2^10"} 1`,
		`pimflow_serve_outcome{outcome="shed"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("labeled exposition missing %q:\n%s", want, out)
		}
	}
	// One TYPE line per base name, shared by all labeled series.
	if got := strings.Count(out, "# TYPE pimflow_serve_stage_cycles summary"); got != 1 {
		t.Fatalf("TYPE lines for shared base = %d, want 1:\n%s", got, out)
	}
}

func TestHistogramQuantileEstimation(t *testing.T) {
	m := NewMetrics()
	for i := 1; i <= 1000; i++ {
		m.Observe("lat", float64(i))
	}
	h := m.Snapshot().Histograms["lat"]
	// The true p50 is 500 (bucket (256,512]); the estimate must land in
	// that bucket, and p99 (true 990) inside (512,1024].
	if h.P50 <= 256 || h.P50 > 512 {
		t.Fatalf("p50 estimate %v outside its bucket (256,512]", h.P50)
	}
	if h.P99 <= 512 || h.P99 > 1024 {
		t.Fatalf("p99 estimate %v outside its bucket (512,1024]", h.P99)
	}
	if !(h.P50 <= h.P99 && h.P99 <= h.P999 && h.P999 <= h.Max) {
		t.Fatalf("quantile estimates out of order: %+v", h)
	}
	// Estimates clamp to the observed range.
	m2 := NewMetrics()
	m2.Observe("one", 3)
	h2 := m2.Snapshot().Histograms["one"]
	if h2.P50 != 3 || h2.P999 != 3 {
		t.Fatalf("single-sample quantiles not clamped to the sample: %+v", h2)
	}
}

func TestObserveExemplar(t *testing.T) {
	m := NewMetrics()
	m.ObserveExemplar("lat", 100, "r1")
	m.ObserveExemplar("lat", 120, "r2") // same bucket: last write wins
	m.ObserveExemplar("lat", 100000, "r9")
	m.Observe("lat", 90) // no exemplar: must not clobber
	h := m.Snapshot().Histograms["lat"]
	if h.Exemplars["<=2^7"] != "r2" {
		t.Fatalf("bucket exemplar = %q, want r2 (%v)", h.Exemplars["<=2^7"], h.Exemplars)
	}
	if h.Exemplars["<=2^17"] != "r9" {
		t.Fatalf("tail bucket exemplar = %q, want r9", h.Exemplars["<=2^17"])
	}
	var b strings.Builder
	if err := m.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `pimflow_lat_bucket{le="<=2^17"} 1 # exemplar="r9"`) {
		t.Fatalf("exemplar trailer missing:\n%s", b.String())
	}
	// Nil-safety.
	var nilM *Metrics
	nilM.ObserveExemplar("x", 1, "r0")
}

// Positive samples below 1 get buckets of their own: each octave
// (2^(k-1), 2^k] with k < 0 is its own "<=2^k" label, and only samples
// <= 0 land in "<=0". Sharing that label would merge buckets in map
// order, so counts would not sum to Count, snapshots of one registry
// would differ, and quantiles there would answer the minimum.
func TestSubUnitHistogramBuckets(t *testing.T) {
	build := func() (HistogramSnapshot, []byte) {
		m := NewMetrics()
		for _, v := range []float64{0, 0.02, 0.3, 0.7} {
			m.Observe("frac", v)
		}
		var b bytes.Buffer
		if err := m.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return m.Snapshot().Histograms["frac"], b.Bytes()
	}
	h, first := build()
	want := map[string]int64{"<=0": 1, "<=2^-5": 1, "<=2^-1": 1, "<=2^0": 1}
	if len(h.Buckets) != len(want) {
		t.Fatalf("buckets %v, want the four labels of %v", h.Buckets, want)
	}
	var sum int64
	for label, n := range h.Buckets {
		if want[label] != n {
			t.Errorf("bucket %q = %d, want %d", label, n, want[label])
		}
		sum += n
	}
	if sum != h.Count {
		t.Errorf("bucket counts sum to %d, Count is %d", sum, h.Count)
	}
	// p50 is the second of four samples, 0.02 in (2^-6, 2^-5]; p99 is
	// the fourth, 0.7 in (2^-1, 2^0].
	if h.P50 <= 1.0/64 || h.P50 > 1.0/32 {
		t.Errorf("p50 estimate %v outside (2^-6, 2^-5]", h.P50)
	}
	if h.P99 <= 0.5 || h.P99 > 1 {
		t.Errorf("p99 estimate %v outside (2^-1, 2^0]", h.P99)
	}
	for i := 0; i < 20; i++ {
		if _, again := build(); !bytes.Equal(first, again) {
			t.Fatalf("identical registries serialized differently:\n%s\n%s", first, again)
		}
	}
}

// A handle that is never updated adds no series; a nil registry's
// handles are nil and their updates no-ops.
func TestHandlesBindOnFirstUpdate(t *testing.T) {
	m := NewMetrics()
	c, g, h := m.CounterOf("c"), m.GaugeOf("g"), m.HistogramOf("h")
	if s := m.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatalf("unused handles added series: %+v", s)
	}
	var b bytes.Buffer
	if err := m.WriteJSON(&b); err != nil {
		t.Fatalf("registry with unused handles does not serialize: %v", err)
	}
	c.Inc()
	g.Set(2)
	h.Observe(3)
	if m.Counter("c") != 1 || m.Gauge("g") != 2 || m.Snapshot().Histograms["h"].Count != 1 {
		t.Fatalf("handle updates missing: %+v", m.Snapshot())
	}

	var nilM *Metrics
	if nilM.CounterOf("c") != nil || nilM.GaugeOf("g") != nil || nilM.HistogramOf("h") != nil {
		t.Fatal("a nil registry returned a non-nil handle")
	}
	nilM.CounterOf("c").Add(2)
	nilM.CounterOf("c").Inc()
	nilM.GaugeOf("g").Set(1)
	nilM.HistogramOf("h").Observe(1)
}

// The same seeded operation sequence applied by name to one registry,
// through handles to a second, and through a random mix of both to a
// third yields byte-identical snapshots and documents: handles and
// names reach the same cells.
func TestHandlesMatchNames(t *testing.T) {
	counters := []string{"serve.requests", LabeledKey("fleet.hops", "machine", "m0"), LabeledKey("fleet.hops", "machine", "m1")}
	gauges := []string{"serve.leases_active", "serve.virtual_frontier_cycles"}
	hists := []string{"serve.latency_cycles", "pim.channel_utilization", LabeledKey("serve.stage_cycles", "stage", "execute")}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		byName, byHandle, mixed := NewMetrics(), NewMetrics(), NewMetrics()
		type handles struct {
			c []*Counter
			g []*Gauge
			h []*Histogram
		}
		bind := func(m *Metrics) handles {
			var hs handles
			for _, n := range counters {
				hs.c = append(hs.c, m.CounterOf(n))
			}
			for _, n := range gauges {
				hs.g = append(hs.g, m.GaugeOf(n))
			}
			for _, n := range hists {
				hs.h = append(hs.h, m.HistogramOf(n))
			}
			return hs
		}
		hb, hm := bind(byHandle), bind(mixed)
		sample := func() float64 {
			switch rng.Intn(4) {
			case 0:
				return 0
			case 1:
				return -rng.Float64()
			case 2:
				return rng.Float64() // below 1: the sub-1 buckets
			}
			return float64(rng.Int63n(1 << 30))
		}
		// The last series of each kind is never touched: its handles
		// must add nothing.
		for op := 0; op < 500; op++ {
			useName := rng.Intn(2) == 0
			switch rng.Intn(4) {
			case 0:
				i, d := rng.Intn(len(counters)-1), rng.Int63n(5)
				byName.Add(counters[i], d)
				hb.c[i].Add(d)
				if useName {
					mixed.Add(counters[i], d)
				} else {
					hm.c[i].Add(d)
				}
			case 1:
				i, v := rng.Intn(len(gauges)-1), sample()
				byName.Set(gauges[i], v)
				hb.g[i].Set(v)
				if useName {
					mixed.Set(gauges[i], v)
				} else {
					hm.g[i].Set(v)
				}
			case 2:
				i, v := rng.Intn(len(hists)-1), sample()
				byName.Observe(hists[i], v)
				hb.h[i].Observe(v)
				if useName {
					mixed.Observe(hists[i], v)
				} else {
					hm.h[i].Observe(v)
				}
			case 3:
				// Exemplars come by name only; they must land in the
				// cells the handles bound.
				i, v, ex := rng.Intn(len(hists)-1), sample(), fmt.Sprintf("r%06d", op)
				for _, m := range []*Metrics{byName, byHandle, mixed} {
					m.ObserveExemplar(hists[i], v, ex)
				}
			}
		}
		want := byName.Snapshot()
		got := byHandle.Snapshot()
		_, c := got.Counters[counters[len(counters)-1]]
		_, g := got.Gauges[gauges[len(gauges)-1]]
		_, h := got.Histograms[hists[len(hists)-1]]
		if c || g || h {
			t.Fatalf("seed %d: a handle that was never updated added its series", seed)
		}
		docs := func(m *Metrics) (string, string) {
			var text, js bytes.Buffer
			if err := m.WriteText(&text); err != nil {
				t.Fatal(err)
			}
			if err := m.WriteJSON(&js); err != nil {
				t.Fatal(err)
			}
			return text.String(), js.String()
		}
		wantText, wantJSON := docs(byName)
		for name, m := range map[string]*Metrics{"handles": byHandle, "mixed": mixed} {
			if got := m.Snapshot(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: %s snapshot differs from by-name:\n%+v\n%+v", seed, name, got, want)
			}
			text, js := docs(m)
			if text != wantText || js != wantJSON {
				t.Fatalf("seed %d: %s documents differ from by-name", seed, name)
			}
		}
	}
}

// Handles shared by several goroutines, plus fresh handles and names on
// the same series, update concurrently with snapshots and both
// document writers; every snapshot serializes, and the final counts
// are exact. Run under -race.
func TestHandlesConcurrentWithSnapshot(t *testing.T) {
	m := NewMetrics()
	shared := struct {
		c *Counter
		g *Gauge
		h *Histogram
	}{m.CounterOf("n"), m.GaugeOf("g"), m.HistogramOf("h")}
	const workers, per = 4, 2000
	stop := make(chan struct{})
	snapped := make(chan error, 1)
	go func() {
		var err error
		for done := false; !done && err == nil; {
			select {
			case <-stop:
				done = true
			default:
			}
			_ = m.Snapshot()
			if err = m.WriteJSON(io.Discard); err == nil {
				err = m.WriteText(io.Discard)
			}
		}
		snapped <- err
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			own := m.HistogramOf("h")
			for i := 0; i < per; i++ {
				shared.c.Inc()
				shared.g.Set(float64(i))
				if i%2 == 0 {
					shared.h.Observe(float64(i) / per)
				} else {
					own.Observe(float64(i))
				}
				m.Inc("n")
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if err := <-snapped; err != nil {
		t.Fatalf("a concurrent snapshot failed to serialize: %v", err)
	}
	if got := m.Counter("n"); got != 2*workers*per {
		t.Errorf("counter = %d, want %d", got, 2*workers*per)
	}
	if h := m.Snapshot().Histograms["h"]; h.Count != workers*per {
		t.Errorf("histogram count = %d, want %d", h.Count, workers*per)
	}
}

type boundKeyA struct{}
type boundKeyB struct{}

type boundSet struct{ hits *Counter }

// TestBound: one value per (registry, key), shared by concurrent first
// uses; nil on a nil registry.
func TestBound(t *testing.T) {
	var builds atomic.Int64
	build := func(m *Metrics) *boundSet {
		builds.Add(1)
		return &boundSet{hits: m.CounterOf("bound.hits")}
	}
	if Bound(nil, boundKeyA{}, build) != nil || builds.Load() != 0 {
		t.Fatal("Bound on a nil registry built a value")
	}
	m := NewMetrics()
	var wg sync.WaitGroup
	got := make([]*boundSet, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = Bound(m, boundKeyA{}, build)
			got[i].hits.Inc()
		}(i)
	}
	wg.Wait()
	for _, b := range got[1:] {
		if b != got[0] {
			t.Fatal("concurrent first uses got different values")
		}
	}
	if m.Counter("bound.hits") != 8 {
		t.Errorf("bound.hits = %d, want 8", m.Counter("bound.hits"))
	}
	n := builds.Load()
	if Bound(m, boundKeyA{}, build) != got[0] || builds.Load() != n {
		t.Error("a later use built again")
	}
	if Bound(m, boundKeyB{}, build) == got[0] {
		t.Error("another key shares the value")
	}
	if Bound(NewMetrics(), boundKeyA{}, build) == got[0] {
		t.Error("another registry shares the value")
	}
}

// Observing a block leaves a histogram exactly as observing its samples
// one at a time in order: count, the bits of sum, min, max and the
// bucket quantiles, and the buckets. The scripts mix blocks with single
// samples: signed zeros around an equal extreme by hand, and seeded runs
// over zero, negative, NaN, subnormal and infinite samples.
func TestObserveBlockMatchesObserve(t *testing.T) {
	// A step is one block, or a single Observe when single is set.
	type step struct {
		single bool
		vals   []float64
	}
	type script struct {
		name   string
		finite bool
		steps  []step
	}
	negZero := math.Copysign(0, -1)
	scripts := []script{
		{"+0 then block -0", true, []step{{true, []float64{0}}, {false, []float64{negZero}}}},
		{"-0 then block +0", true, []step{{true, []float64{negZero}}, {false, []float64{0, 0.5}}}},
		{"blocks -0 +0, +0 -0", true, []step{{false, []float64{negZero, 0}}, {false, []float64{0, negZero}}}},
	}
	// Even seeds draw only finite specials, so their sums stay numbers
	// whose bits must match; odd seeds add NaN and the infinities.
	finite := []float64{0, negZero, -3, 5e-324, math.SmallestNonzeroFloat64 * 7, 0x1p-1022, 1, 0.75, 1e300}
	special := append([]float64{math.NaN(), math.Inf(1), math.Inf(-1)}, finite...)
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sample := func() float64 {
			switch rng.Intn(4) {
			case 0:
				if seed%2 == 0 {
					return finite[rng.Intn(len(finite))]
				}
				return special[rng.Intn(len(special))]
			case 1:
				return rng.Float64()
			default:
				return rng.ExpFloat64() * 1e3
			}
		}
		sc := script{name: fmt.Sprintf("seed %d", seed), finite: seed%2 == 0}
		for n := 0; n < 20; n++ {
			st := step{single: rng.Intn(3) == 0}
			k := rng.Intn(40)
			if st.single {
				k = 1
			}
			for ; k > 0; k-- {
				st.vals = append(st.vals, sample())
			}
			sc.steps = append(sc.steps, st)
		}
		scripts = append(scripts, sc)
	}
	for _, sc := range scripts {
		name := sc.name
		one, blocked := NewMetrics(), NewMetrics()
		h1, hb := one.HistogramOf("h"), blocked.HistogramOf("h")
		for _, st := range sc.steps {
			var b Samples
			for _, v := range st.vals {
				h1.Observe(v)
				b.Add(v)
			}
			if st.single {
				hb.Observe(st.vals[0])
				continue
			}
			hb.ObserveBlock(&b)
			if len(b.vals) == 0 && len(blocked.Snapshot().Histograms) != len(one.Snapshot().Histograms) {
				t.Fatalf("%s: an empty block changed the series set", name)
			}
		}
		want, got := one.Snapshot().Histograms["h"], blocked.Snapshot().Histograms["h"]
		if sc.finite && math.IsNaN(want.Sum) {
			t.Fatalf("%s: a finite run summed to NaN", name)
		}
		for _, f := range []struct {
			name      string
			got, want float64
		}{
			{"sum", got.Sum, want.Sum}, {"min", got.Min, want.Min}, {"max", got.Max, want.Max},
			{"mean", got.Mean, want.Mean}, {"p50", got.P50, want.P50}, {"p99", got.P99, want.P99}, {"p999", got.P999, want.P999},
		} {
			// Go leaves the payload of a NaN result unspecified (it
			// depends on the operand order the compiler emits), so a NaN
			// sum matches any NaN.
			same := math.Float64bits(f.got) == math.Float64bits(f.want) || math.IsNaN(f.got) && math.IsNaN(f.want)
			if !same {
				t.Errorf("%s: %s %v (bits %x), want %v (bits %x)", name, f.name, f.got, math.Float64bits(f.got), f.want, math.Float64bits(f.want))
			}
		}
		if got.Count != want.Count || !reflect.DeepEqual(got.Buckets, want.Buckets) {
			t.Errorf("%s: count %d buckets %v, want %d %v", name, got.Count, got.Buckets, want.Count, want.Buckets)
		}
	}

	// A finite block into a fresh series keeps the document serializable,
	// and nil handles and empty blocks are no-ops.
	m := NewMetrics()
	var b Samples
	m.HistogramOf("empty").ObserveBlock(&b)
	var nilM *Metrics
	nilM.HistogramOf("h").ObserveBlock(&b)
	b.Add(0.5)
	b.Add(0.25)
	m.HistogramOf("h").ObserveBlock(&b)
	m.HistogramOf("h").ObserveBlock(&b)
	s := m.Snapshot()
	if _, ok := s.Histograms["empty"]; ok || s.Histograms["h"].Count != 4 || s.Histograms["h"].Sum != 1.5 {
		t.Fatalf("snapshot %+v", s.Histograms)
	}
	if err := m.WriteJSON(io.Discard); err != nil {
		t.Fatal(err)
	}
}
