package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Metrics is a thread-safe, nil-safe registry of named counters, gauges,
// and histograms. Every method is a no-op on a nil receiver, so
// instrumented code threads a possibly-nil *Metrics without conditionals;
// the nil path costs one pointer compare (benchmark-pinned in this
// package).
//
// Each series is one cell: an atomic counter, an atomic gauge, or a
// histogram with its own lock. The name-keyed methods find the cell
// under the registry lock; hot paths resolve a handle once (CounterOf,
// GaugeOf, HistogramOf) and update the same cell without hashing the
// name. A series appears with its first update, whichever way it comes.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]*atomic.Int64  // guarded by mu
	gauges   map[string]*atomic.Uint64 // guarded by mu; float64 bits
	hists    map[string]*histData      // guarded by mu
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: map[string]*atomic.Int64{},
		gauges:   map[string]*atomic.Uint64{},
		hists:    map[string]*histData{},
	}
}

// counterLocked returns the named counter's cell, creating it.
func (m *Metrics) counterLocked(name string) *atomic.Int64 {
	c := m.counters[name]
	if c == nil {
		c = new(atomic.Int64)
		m.counters[name] = c
	}
	return c
}

// gaugeLocked returns the named gauge's cell, creating it.
func (m *Metrics) gaugeLocked(name string) *atomic.Uint64 {
	g := m.gauges[name]
	if g == nil {
		g = new(atomic.Uint64)
		m.gauges[name] = g
	}
	return g
}

// histLocked returns the named histogram, creating it.
func (m *Metrics) histLocked(name string) *histData {
	h := m.hists[name]
	if h == nil {
		h = &histData{min: math.Inf(1), max: math.Inf(-1), buckets: map[int]int64{}}
		m.hists[name] = h
	}
	return h
}

// Add increments the named counter by delta.
func (m *Metrics) Add(name string, delta int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.counterLocked(name).Add(delta)
	m.mu.Unlock()
}

// Inc increments the named counter by one.
func (m *Metrics) Inc(name string) { m.Add(name, 1) }

// Counter returns the current value of a counter.
func (m *Metrics) Counter(name string) int64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if c := m.counters[name]; c != nil {
		return c.Load()
	}
	return 0
}

// Set records the named gauge's current value (last write wins).
func (m *Metrics) Set(name string, v float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.gaugeLocked(name).Store(math.Float64bits(v))
	m.mu.Unlock()
}

// Gauge returns the current value of a gauge.
func (m *Metrics) Gauge(name string) float64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if g := m.gauges[name]; g != nil {
		return math.Float64frombits(g.Load())
	}
	return 0
}

// Observe records one sample into the named histogram.
func (m *Metrics) Observe(name string, v float64) {
	m.ObserveExemplar(name, v, "")
}

// ObserveExemplar records one sample and, when exemplar is non-empty,
// remembers it as the bucket's most recent exemplar — the handle (e.g. a
// request ID) that ties a tail bucket back to a concrete cause.
func (m *Metrics) ObserveExemplar(name string, v float64, exemplar string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.histLocked(name).observe(v, exemplar)
	m.mu.Unlock()
}

// Counter is a handle on one counter series (Metrics.CounterOf).
type Counter struct {
	m    *Metrics
	name string
	cell atomic.Pointer[atomic.Int64]
}

// CounterOf returns a handle on the named counter, for a site that
// updates it often. The handle binds the series on its first update, so
// one that is never updated adds nothing to the registry. A nil registry
// gives a nil handle, whose methods are no-ops.
func (m *Metrics) CounterOf(name string) *Counter {
	if m == nil {
		return nil
	}
	return &Counter{m: m, name: name}
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	if v := c.cell.Load(); v != nil {
		v.Add(delta)
		return
	}
	// First update: bind under the registry lock, so a snapshot never
	// sees the series before its first delta.
	c.m.mu.Lock()
	v := c.m.counterLocked(c.name)
	v.Add(delta)
	c.cell.Store(v)
	c.m.mu.Unlock()
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Gauge is a handle on one gauge series (Metrics.GaugeOf).
type Gauge struct {
	m    *Metrics
	name string
	cell atomic.Pointer[atomic.Uint64]
}

// GaugeOf returns a handle on the named gauge; binding and nil-safety
// are CounterOf's.
func (m *Metrics) GaugeOf(name string) *Gauge {
	if m == nil {
		return nil
	}
	return &Gauge{m: m, name: name}
}

// Set records the gauge's current value (last write wins).
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	bits := math.Float64bits(v)
	if c := g.cell.Load(); c != nil {
		c.Store(bits)
		return
	}
	g.m.mu.Lock()
	c := g.m.gaugeLocked(g.name)
	c.Store(bits)
	g.cell.Store(c)
	g.m.mu.Unlock()
}

// Histogram is a handle on one histogram series (Metrics.HistogramOf).
type Histogram struct {
	m    *Metrics
	name string
	cell atomic.Pointer[histData]
}

// HistogramOf returns a handle on the named histogram; binding and
// nil-safety are CounterOf's. Binding on the first sample matters most
// here: an empty histogram's min and max are ±Inf, which no JSON
// document can carry.
func (m *Metrics) HistogramOf(name string) *Histogram {
	if m == nil {
		return nil
	}
	return &Histogram{m: m, name: name}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if d := h.cell.Load(); d != nil {
		d.observe(v, "")
		return
	}
	h.m.mu.Lock()
	d := h.m.histLocked(h.name)
	d.observe(v, "")
	h.cell.Store(d)
	h.m.mu.Unlock()
}

// histData accumulates a histogram: summary statistics plus exponential
// (power-of-two) buckets, which are cheap, deterministic, and enough to
// see a distribution's shape in a JSON dump.
type histData struct {
	mu       sync.Mutex
	count    int64   // guarded by mu
	sum      float64 // guarded by mu
	min, max float64 // guarded by mu
	// buckets counts samples by bucketOf key.
	buckets map[int]int64 // guarded by mu
	// exemplars ties buckets back to concrete origins (request IDs): the
	// most recent exemplar per bucket. nil until the first ObserveExemplar.
	exemplars map[int]string // guarded by mu
}

// observe records one sample.
func (h *histData) observe(v float64, exemplar string) {
	b := bucketOf(v)
	h.mu.Lock()
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.buckets[b]++
	if exemplar != "" {
		if h.exemplars == nil {
			h.exemplars = map[int]string{}
		}
		h.exemplars[b] = exemplar
	}
	h.mu.Unlock()
}

// nonPositive is the bucket key of samples <= 0 (and NaN): below every
// key a positive sample can take, the smallest being -1074.
const nonPositive = math.MinInt

// bucketOf returns the exponential bucket key for a sample: the
// smallest k with v <= 2^k for a positive sample, so (2^(k-1), 2^k] is
// its bucket and a fraction's key is negative; nonPositive otherwise.
func bucketOf(v float64) int {
	if !(v > 0) {
		return nonPositive
	}
	return int(math.Ceil(math.Log2(v)))
}

// bucketLabel renders a bucket key as its exported upper-bound label.
func bucketLabel(b int) string {
	if b == nonPositive {
		return "<=0"
	}
	return "<=2^" + strconv.Itoa(b)
}

// quantileLocked estimates the q-quantile from the exponential buckets:
// nearest-rank bucket selection, then linear interpolation by rank
// fraction inside the winning bucket (2^(k-1), 2^k], clamped to the
// observed min/max. Power-of-two buckets bound the estimation error to
// one octave, which is enough to rank tail buckets and pick exemplars;
// exact percentiles come from the replay harness, which keeps samples.
func (h *histData) quantileLocked(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	keys := make([]int, 0, len(h.buckets))
	for k := range h.buckets {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var cum int64
	for _, k := range keys {
		n := h.buckets[k]
		if cum+n < rank {
			cum += n
			continue
		}
		if k == nonPositive {
			// Non-positive samples share one unbounded-below bucket; the
			// observed min is the only honest point estimate.
			return h.min
		}
		lo, hi := math.Exp2(float64(k-1)), math.Exp2(float64(k))
		v := lo + (hi-lo)*float64(rank-cum)/float64(n)
		if v < h.min {
			v = h.min
		}
		if v > h.max {
			v = h.max
		}
		return v
	}
	return h.max
}

// snapshot copies the histogram's state.
func (h *histData) snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	hs := HistogramSnapshot{
		Count: h.count, Sum: h.sum, Min: h.min, Max: h.max,
		Buckets: make(map[string]int64, len(h.buckets)),
	}
	if h.count > 0 {
		hs.Mean = h.sum / float64(h.count)
		hs.P50 = h.quantileLocked(0.50)
		hs.P99 = h.quantileLocked(0.99)
		hs.P999 = h.quantileLocked(0.999)
	}
	for b, n := range h.buckets {
		hs.Buckets[bucketLabel(b)] = n
	}
	if len(h.exemplars) > 0 {
		hs.Exemplars = make(map[string]string, len(h.exemplars))
		for b, ex := range h.exemplars {
			hs.Exemplars[bucketLabel(b)] = ex
		}
	}
	return hs
}

// HistogramSnapshot is an exported histogram state.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	// P50/P99/P999 are percentiles estimated from the bucket layout (see
	// histData.quantile); they are bucket-resolution estimates, not exact.
	P50  float64 `json:"p50,omitempty"`
	P99  float64 `json:"p99,omitempty"`
	P999 float64 `json:"p999,omitempty"`
	// Buckets maps upper bounds ("<=2^k", with k negative below 1, or
	// "<=0") to sample counts.
	Buckets map[string]int64 `json:"buckets,omitempty"`
	// Exemplars maps bucket upper bounds to the most recent exemplar
	// recorded into that bucket (ObserveExemplar).
	Exemplars map[string]string `json:"exemplars,omitempty"`
}

// Snapshot is a point-in-time copy of the registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current state.
func (m *Metrics) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(m.counters)),
		Gauges:     make(map[string]float64, len(m.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(m.hists)),
	}
	for k, c := range m.counters {
		s.Counters[k] = c.Load()
	}
	for k, g := range m.gauges {
		s.Gauges[k] = math.Float64frombits(g.Load())
	}
	for k, h := range m.hists {
		s.Histograms[k] = h.snapshot()
	}
	return s
}

// LabeledKey canonicalizes a metric name plus label pairs into one
// registry key: "name{k1=v1,k2=v2}". Instrumentation that labels a series
// (per-model, per-stage, per-class) must build its keys through this
// helper with the pairs in one fixed order, so identical series share one
// key; WriteText renders the braces back into Prometheus-style labels.
// Label values must not contain commas or braces.
func LabeledKey(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	var b strings.Builder
	n := len(name) + 2
	for _, s := range kv {
		n += len(s) + 2
	}
	b.Grow(n)
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteByte('=')
		b.WriteString(kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// SplitLabeledKey splits a LabeledKey-style registry key into its base
// name and label pairs; keys without a label block return nil pairs.
func SplitLabeledKey(key string) (string, [][2]string) {
	open := strings.IndexByte(key, '{')
	if open < 0 || !strings.HasSuffix(key, "}") {
		return key, nil
	}
	base := key[:open]
	var labels [][2]string
	for _, part := range strings.Split(key[open+1:len(key)-1], ",") {
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return key, nil // not a labeled key after all
		}
		labels = append(labels, [2]string{k, v})
	}
	return base, labels
}

// labelBlock renders label pairs (plus optional extras) in Prometheus
// form: `{k="v",...}`, or "" when there are none. Label names pass
// through the metric-name sanitizer; values are quoted verbatim.
func labelBlock(labels [][2]string, extra ...[2]string) string {
	all := labels
	if len(extra) > 0 {
		all = append(append(make([][2]string, 0, len(labels)+len(extra)), labels...), extra...)
	}
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, kv := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strings.TrimPrefix(metricName(kv[0]), "pimflow_"))
		b.WriteByte('=')
		b.WriteString(fmt.Sprintf("%q", kv[1]))
	}
	b.WriteByte('}')
	return b.String()
}

// WriteText dumps the registry in a Prometheus-style text exposition:
// one `# TYPE` comment plus one `pimflow_<name> <value>` line per counter
// and gauge, and count/sum/min/max/mean/p50/p99/p999 plus
// `_bucket{le="..."}` lines per histogram. Registry keys built with
// LabeledKey render their labels in brace form on every line; bucket
// exemplars are appended as OpenMetrics-style `# exemplar="..."`
// trailers. Metric names are sanitized to the usual [a-zA-Z0-9_:]
// charset (dots and brackets become underscores). Lines are emitted in
// sorted name order so identical registries produce identical documents.
// The serving layer's /metrics endpoint is backed by this dump.
func (m *Metrics) WriteText(w io.Writer) error {
	if m == nil {
		return fmt.Errorf("obs: nil metrics")
	}
	s := m.Snapshot()
	var b []byte
	emit := func(format string, args ...any) {
		b = append(b, fmt.Sprintf(format, args...)...)
	}
	typed := map[string]bool{} // labeled series of one base share a TYPE line
	emitType := func(name, kind string) {
		if !typed[name] {
			typed[name] = true
			emit("# TYPE %s %s\n", name, kind)
		}
	}
	for _, k := range sortedKeys(s.Counters) {
		base, labels := SplitLabeledKey(k)
		name := metricName(base)
		emitType(name, "counter")
		emit("%s%s %d\n", name, labelBlock(labels), s.Counters[k])
	}
	for _, k := range sortedKeys(s.Gauges) {
		base, labels := SplitLabeledKey(k)
		name := metricName(base)
		emitType(name, "gauge")
		emit("%s%s %v\n", name, labelBlock(labels), s.Gauges[k])
	}
	for _, k := range sortedKeys(s.Histograms) {
		h := s.Histograms[k]
		base, labels := SplitLabeledKey(k)
		name := metricName(base)
		lb := labelBlock(labels)
		emitType(name, "summary")
		emit("%s_count%s %d\n%s_sum%s %v\n%s_min%s %v\n%s_max%s %v\n%s_mean%s %v\n",
			name, lb, h.Count, name, lb, h.Sum, name, lb, h.Min, name, lb, h.Max, name, lb, h.Mean)
		emit("%s_p50%s %v\n%s_p99%s %v\n%s_p999%s %v\n",
			name, lb, h.P50, name, lb, h.P99, name, lb, h.P999)
		for _, le := range sortedKeys(h.Buckets) {
			emit("%s_bucket%s %d", name, labelBlock(labels, [2]string{"le", le}), h.Buckets[le])
			if ex := h.Exemplars[le]; ex != "" {
				emit(" # exemplar=%q", ex)
			}
			emit("\n")
		}
	}
	_, err := w.Write(b)
	return err
}

// metricName maps a registry key onto the Prometheus name charset under a
// pimflow_ prefix: runs of disallowed characters collapse to one
// underscore (e.g. "pim.channel_busy_cycles[02]" ->
// "pimflow_pim_channel_busy_cycles_02").
func metricName(key string) string {
	out := make([]byte, 0, len(key)+8)
	out = append(out, "pimflow_"...)
	pending := false
	for i := 0; i < len(key); i++ {
		c := key[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
		if !ok {
			pending = len(out) > len("pimflow_")
			continue
		}
		if pending {
			out = append(out, '_')
			pending = false
		}
		out = append(out, c)
	}
	return string(out)
}

// sortedKeys returns a map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteJSON dumps the registry as indented JSON. Map keys are emitted in
// sorted order (encoding/json's contract), so identical registries
// produce identical documents.
func (m *Metrics) WriteJSON(w io.Writer) error {
	if m == nil {
		return fmt.Errorf("obs: nil metrics")
	}
	data, err := json.MarshalIndent(m.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
