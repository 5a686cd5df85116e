// Package fixture exercises LT-METRIC-KEY: metric names and label
// names handed to the obs registry must be compile-time constants.
package fixture

import "pimflow/internal/obs"

const keyConst = "fixture.requests"

func dynamicKey(m *obs.Metrics, class string) {
	m.Inc("fixture.miss." + class) // want LT-METRIC-KEY
}

func dynamicObserve(m *obs.Metrics, stage string) {
	m.Observe(stage, 1.0) // want LT-METRIC-KEY
}

func dynamicLabelName(m *obs.Metrics, k string) {
	m.Inc(obs.LabeledKey("fixture.miss", k, "gold")) // want LT-METRIC-KEY
}

func constKey(m *obs.Metrics) {
	m.Inc(keyConst)
	m.Add("fixture.bytes"+".total", 8) // constant folding keeps this legal
}

func labeledDynamicValue(m *obs.Metrics, class string) {
	m.Inc(obs.LabeledKey("fixture.miss", "class", class))
	m.ObserveExemplar(obs.LabeledKey("fixture.stage", "stage", "execute", "class", class), 2.0, "r000001")
}

func dynamicHandleKeys(m *obs.Metrics, name string) {
	m.CounterOf("fixture.hops." + name).Inc()               // want LT-METRIC-KEY
	m.GaugeOf(name).Set(1)                                  // want LT-METRIC-KEY
	m.HistogramOf("fixture.lat" + name).Observe(2)          // want LT-METRIC-KEY
	m.CounterOf(obs.LabeledKey("fixture.hops", name, "m0")) // want LT-METRIC-KEY
}

func constHandleKeys(m *obs.Metrics, name string) {
	m.CounterOf(obs.LabeledKey("fleet.hops", "machine", name)).Inc()
	m.GaugeOf(keyConst).Set(1)
	m.HistogramOf("fixture.latency_cycles").Observe(3)
}

func readsAreExempt(m *obs.Metrics, name string) int64 {
	return m.Counter(name)
}
