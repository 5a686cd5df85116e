package lint

import (
	"go/ast"
	"go/types"
)

// metricSinks are the obs.Metrics methods whose first argument names a
// time series: the name-keyed updates and the handle constructors, whose
// handles create the series on their first update. Counter/Gauge reads
// are exempt — reads can't create series.
var metricSinks = map[string]bool{
	"Inc": true, "Add": true, "Set": true,
	"Observe": true, "ObserveExemplar": true,
	"CounterOf": true, "GaugeOf": true, "HistogramOf": true,
}

// analyzerMetricKey implements LT-METRIC-KEY. The /metrics endpoint's
// cardinality is bounded only if metric names and label names come
// from a closed set: a key built by string concatenation
// ("serve.slo_miss." + class) creates one series per runtime value,
// defeating dashboards and the Prometheus text renderer's name
// sanitizer alike. Keys passed to obs.Metrics Inc/Add/Set/Observe/
// ObserveExemplar, and to the handle constructors CounterOf/GaugeOf/
// HistogramOf, must therefore be compile-time constants, or an
// obs.LabeledKey(name, k1, v1, ...) call whose name and label *names*
// (odd argument positions) are constants — label values may vary, that
// is what labels are for. internal/obs itself is exempt.
var analyzerMetricKey = &Analyzer{
	ID:  RuleMetricKey,
	Doc: "metric keys and label names are compile-time constants (dynamic values go in LabeledKey label values)",
	Run: func(p *Pass) {
		if p.InScope("internal/obs") && !p.Fixture {
			return
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !metricSinks[sel.Sel.Name] {
					return true
				}
				fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
				if !ok {
					return true
				}
				sig, ok := fn.Type().(*types.Signature)
				if !ok || sig.Recv() == nil || !isNamed(sig.Recv().Type(), "pimflow/internal/obs", "Metrics") {
					return true
				}
				checkMetricKey(p, sel.Sel.Name, call.Args[0])
				return true
			})
		}
	},
}

func checkMetricKey(p *Pass, method string, key ast.Expr) {
	if isConst(p.Info, key) {
		return
	}
	if lk, ok := ast.Unparen(key).(*ast.CallExpr); ok && isPkgFunc(p.Info, lk.Fun, "pimflow/internal/obs", "LabeledKey") {
		if len(lk.Args) == 0 {
			return // type error; the compiler owns this
		}
		if !isConst(p.Info, lk.Args[0]) {
			p.Reportf(lk.Args[0], "metric name passed to LabeledKey is not a compile-time constant")
		}
		for i := 1; i < len(lk.Args); i += 2 {
			if !isConst(p.Info, lk.Args[i]) {
				p.Reportf(lk.Args[i], "label name passed to LabeledKey is not a compile-time constant (dynamic values belong in the label value)")
			}
		}
		return
	}
	p.Reportf(key, "metric key passed to %s is not a compile-time constant; use obs.LabeledKey with constant name and label names", method)
}

// isConst reports whether the type checker evaluated e to a constant.
func isConst(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}
