// Command pimflow-bench turns `go test -bench` output into a
// machine-readable performance snapshot. It reads benchmark output on
// stdin, passes it through unchanged to stdout, and merges the parsed
// results into a JSON file keyed by label (e.g. "before" / "after") so
// successive runs build up a comparable record:
//
//	go test -run '^$' -bench . -benchmem ./... | pimflow-bench -label after -out BENCH_PR5.json
//
// Each entry maps the benchmark name (CPU-count suffix stripped) to
// ns/op, B/op, allocs/op, and any custom b.ReportMetric units.
//
// With -scenario, the command instead drives the trace-driven load
// harness directly (no stdin): it replays the named builtin scenarios
// (comma-separated, or "all") through a fresh server and merges each
// replay's throughput, simulated-latency percentiles, and attributed
// per-stage percentile splits into the same snapshot file as a
// pseudo-benchmark entry; -trace additionally writes a Chrome trace with
// one lane per in-flight request, and -certify records each replay's
// schedule certificate and fails unless it passes every SR-* rule
// (verify.Schedule):
//
//	pimflow-bench -scenario poisson -certify -out BENCH_PR7.json
//
// With -compare, the command diffs two snapshot files and exits nonzero
// when a metric regressed beyond -threshold (CI gating):
//
//	pimflow-bench -compare -metrics p99_simcycles,served BENCH_PR6.json BENCH_PR7.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"pimflow/internal/fleet"
	"pimflow/internal/load"
	"pimflow/internal/obs"
)

// Result is one benchmark measurement. Custom metrics reported with
// b.ReportMetric (e.g. the serve throughput benchmark's req/s and
// p50_simcycles) land in Extra keyed by their unit.
type Result struct {
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64              `json:"allocs_per_op,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// benchLine matches e.g.
//
//	BenchmarkFig13_ChannelRatio-8  1  1815530219 ns/op  5086341584 B/op  1075671 allocs/op
var cpuSuffix = regexp.MustCompile(`-\d+$`)

func parseLine(line string) (string, Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", Result{}, false
	}
	name := cpuSuffix.ReplaceAllString(fields[0], "")
	var r Result
	seen := false
	// Fields after the iteration count come in value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", Result{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = v
			seen = true
		case "B/op":
			r.BytesPerOp = int64(v)
		case "allocs/op":
			r.AllocsPerOp = int64(v)
		default:
			if r.Extra == nil {
				r.Extra = map[string]float64{}
			}
			r.Extra[fields[i+1]] = v
			seen = true
		}
	}
	return name, r, seen
}

// loadSection reads the snapshot file (if any) and returns the full
// result map plus the section for the given label, creating it if
// needed.
func loadSection(label, out string) (map[string]map[string]Result, map[string]Result, error) {
	results := map[string]map[string]Result{}
	if data, err := os.ReadFile(out); err == nil {
		if err := json.Unmarshal(data, &results); err != nil {
			return nil, nil, fmt.Errorf("parse existing %s: %w", out, err)
		}
	} else if !os.IsNotExist(err) {
		return nil, nil, err
	}
	section := results[label]
	if section == nil {
		section = map[string]Result{}
		results[label] = section
	}
	return results, section, nil
}

func saveSnapshot(out string, results map[string]map[string]Result) error {
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o644)
}

// runScenarios replays builtin load scenarios and records each replay
// as a pseudo-benchmark entry ("Scenario/<name>"): ns/op is the
// wall-clock replay time, everything else lands in Extra — including the
// attributed stage split of the p50/p99/p999 requests, whose
// <q>_*_cycles extras sum to <q>_simcycles exactly. With tracePath the
// replays share one Chrome trace (request lanes + each batch's GPU/PIM
// timeline) written at the end.
func runScenarios(label, out, names, tracePath string, certify bool) error {
	if names == "all" {
		names = "poisson,diurnal,bursty"
	}
	// The fleet scaling sweep: the same workload on 1, 2, and 4 machines.
	names = strings.Replace(names, "fleet,", "fleet1,fleet2,fleet4,", 1)
	if names == "fleet" || strings.HasSuffix(names, ",fleet") {
		names = strings.TrimSuffix(names, "fleet") + "fleet1,fleet2,fleet4"
	}
	results, section, err := loadSection(label, out)
	if err != nil {
		return err
	}
	opts := load.RunOptions{RequestLog: 512, Certify: certify}
	if tracePath != "" {
		opts.Trace = obs.NewTrace()
	}
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if strings.HasPrefix(name, "fleet") {
			if err := runFleetScenario(section, name, certify); err != nil {
				return err
			}
			continue
		}
		sc, err := load.Builtin(name)
		if err != nil {
			return err
		}
		rep, err := load.RunWithOptions(sc, opts)
		if err != nil {
			return fmt.Errorf("scenario %s: %w", name, err)
		}
		extra := map[string]float64{
			"req/s":           rep.ReqPerSec,
			"requests":        float64(rep.Requests),
			"served":          float64(rep.Served),
			"shed":            float64(rep.Shed),
			"slo_miss":        float64(rep.SLOMiss),
			"p50_simcycles":   float64(rep.P50),
			"p99_simcycles":   float64(rep.P99),
			"p999_simcycles":  float64(rep.P999),
			"mean_batch":      rep.MeanBatch,
			"makespan_cycles": float64(rep.MakespanCycles),
		}
		if at := rep.Attributed; at != nil {
			for q, a := range map[string]load.AttributedRequest{"p50": at.P50, "p99": at.P99, "p999": at.P999} {
				extra[q+"_queue_cycles"] = float64(a.Stages.Queue)
				extra[q+"_batch_window_cycles"] = float64(a.Stages.BatchWait)
				extra[q+"_lease_wait_cycles"] = float64(a.Stages.LeaseWait)
				extra[q+"_execute_cycles"] = float64(a.Stages.Execute)
			}
		}
		section["Scenario/"+name] = Result{NsPerOp: rep.WallSeconds * 1e9, Extra: extra}
		fmt.Printf("scenario %-8s served %5d shed %5d slo_miss %5d p50 %d p99 %d p999 %d cycles (%.0f req/s)\n",
			name, rep.Served, rep.Shed, rep.SLOMiss, rep.P50, rep.P99, rep.P999, rep.ReqPerSec)
		if at := rep.Attributed; at != nil {
			fmt.Printf("  p99 split: batch_window %d + lease_wait %d + execute %d = %d cycles\n",
				at.P99.Stages.BatchWait, at.P99.Stages.LeaseWait, at.P99.Stages.Execute, at.P99.LatencyCycles)
		}
		if rep.Certified {
			extra["certified_leases"] = float64(rep.CertifiedLeases)
			fmt.Printf("  schedule certificate: %d leases verified clean (SR-*)\n", rep.CertifiedLeases)
		}
	}
	if err := saveSnapshot(out, results); err != nil {
		return err
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := opts.Trace.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "pimflow-bench: wrote Chrome trace to %s\n", tracePath)
	}
	fmt.Fprintf(os.Stderr, "pimflow-bench: recorded scenarios under %q in %s\n", label, out)
	return nil
}

// fleetBuiltin builds the fleet scaling scenario for a machine count:
// the builtin Poisson workload replayed through a fleet whose hot
// models replicate onto every machine. The per-machine stacks are
// identical, so comparing fleet1/fleet2/fleet4 isolates what the router
// tier buys (JSQ over replicas) and costs (nothing, on the virtual
// timeline) as the fleet grows.
func fleetBuiltin(machines int) (fleet.Scenario, error) {
	base, err := load.Builtin("poisson")
	if err != nil {
		return fleet.Scenario{}, err
	}
	base.Name = fmt.Sprintf("fleet%d", machines)
	// Push the arrival rate past one machine's saturation point so added
	// replicas visibly pull the tail in.
	base.RatePerMCycle = 8
	sc := fleet.Scenario{
		Scenario: base,
		Machines: machines,
		Replicas: map[string]int{},
		Certify:  true,
	}
	for _, m := range base.Models {
		sc.Replicas[m.Name] = machines
	}
	return sc, nil
}

// runFleetScenario replays one fleet scaling point ("fleet1", "fleet2",
// "fleet4") and records it as Scenario/<name>.
func runFleetScenario(section map[string]Result, name string, certify bool) error {
	var machines int
	if _, err := fmt.Sscanf(name, "fleet%d", &machines); err != nil || machines <= 0 {
		return fmt.Errorf("unknown fleet scenario %q (fleet1, fleet2, fleet4, or \"fleet\" for all)", name)
	}
	sc, err := fleetBuiltin(machines)
	if err != nil {
		return err
	}
	sc.Certify = certify || sc.Certify
	rep, err := fleet.Run(sc)
	if err != nil {
		return fmt.Errorf("scenario %s: %w", name, err)
	}
	extra := map[string]float64{
		"req/s":           rep.ReqPerSec,
		"requests":        float64(rep.Requests),
		"served":          float64(rep.Served),
		"shed":            float64(rep.Shed),
		"machines":        float64(machines),
		"p50_simcycles":   float64(rep.P50),
		"p99_simcycles":   float64(rep.P99),
		"p999_simcycles":  float64(rep.P999),
		"makespan_cycles": float64(rep.MakespanCycles),
	}
	if rep.Certified {
		extra["certified_leases"] = float64(rep.CertifiedLeases)
	}
	section["Scenario/"+name] = Result{NsPerOp: rep.WallSeconds * 1e9, Extra: extra}
	fmt.Printf("scenario %-8s served %5d shed %5d p50 %d p99 %d p999 %d cycles (%.0f req/s, %d machines)\n",
		name, rep.Served, rep.Shed, rep.P50, rep.P99, rep.P999, rep.ReqPerSec, machines)
	if rep.Certified {
		fmt.Printf("  fleet certificate: %d leases verified clean (FL-* + SR-*)\n", rep.CertifiedLeases)
	}
	return nil
}

// higherBetter classifies a metric's direction: throughputs and served
// counts regress downward, everything else (latencies, cycles, allocs)
// regresses upward.
func higherBetter(unit string) bool {
	return strings.HasSuffix(unit, "/s") || unit == "served" || unit == "requests"
}

// metricFilter parses the -metrics flag: comma-separated entries, each a
// bare unit ("p99_simcycles", applying to every benchmark) or a
// qualified "Benchmark:unit" pair. Empty matches everything.
type metricFilter map[string]bool

func parseMetricFilter(s string) metricFilter {
	if s == "" {
		return nil
	}
	f := metricFilter{}
	for _, e := range strings.Split(s, ",") {
		if e = strings.TrimSpace(e); e != "" {
			f[e] = true
		}
	}
	return f
}

func (f metricFilter) match(bench, unit string) bool {
	return f == nil || f[unit] || f[bench+":"+unit]
}

// metricsOf flattens a Result into unit -> value.
func metricsOf(r Result) map[string]float64 {
	m := map[string]float64{"ns/op": r.NsPerOp}
	if r.BytesPerOp > 0 {
		m["B/op"] = float64(r.BytesPerOp)
	}
	if r.AllocsPerOp > 0 {
		m["allocs/op"] = float64(r.AllocsPerOp)
	}
	for unit, v := range r.Extra {
		m[unit] = v
	}
	return m
}

// compare diffs two snapshot files and fails on any metric that
// regressed by more than threshold (fractional; 0.10 = 10%). Only
// benchmarks present in both sections are compared, and only metrics
// the filter admits.
func compare(beforePath, afterPath, beforeLabel, afterLabel string, filter metricFilter, threshold float64) error {
	loadFile := func(path, label string) (map[string]Result, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var doc map[string]map[string]Result
		if err := json.Unmarshal(data, &doc); err != nil {
			return nil, fmt.Errorf("parse %s: %w", path, err)
		}
		section, ok := doc[label]
		if !ok {
			var labels []string
			for l := range doc {
				labels = append(labels, l)
			}
			sort.Strings(labels)
			return nil, fmt.Errorf("%s has no section %q (have %v)", path, label, labels)
		}
		return section, nil
	}
	before, err := loadFile(beforePath, beforeLabel)
	if err != nil {
		return err
	}
	after, err := loadFile(afterPath, afterLabel)
	if err != nil {
		return err
	}

	var names []string
	for name := range before {
		if _, ok := after[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("no common benchmarks between %s[%s] and %s[%s]", beforePath, beforeLabel, afterPath, afterLabel)
	}

	compared, regressions := 0, 0
	for _, name := range names {
		bm, am := metricsOf(before[name]), metricsOf(after[name])
		var units []string
		for unit := range bm {
			if _, ok := am[unit]; ok && filter.match(name, unit) {
				units = append(units, unit)
			}
		}
		sort.Strings(units)
		for _, unit := range units {
			b, a := bm[unit], am[unit]
			if b == 0 {
				continue // no baseline to regress against
			}
			compared++
			delta := (a - b) / b
			bad := delta > threshold
			if higherBetter(unit) {
				bad = delta < -threshold
			}
			marker := ""
			if bad {
				marker = "  REGRESSION"
				regressions++
			}
			fmt.Printf("%-40s %-24s %14.4g -> %14.4g  %+7.2f%%%s\n", name, unit, b, a, delta*100, marker)
		}
	}
	fmt.Fprintf(os.Stderr, "pimflow-bench: compared %d metrics across %d benchmarks, %d regression(s) beyond %.0f%%\n",
		compared, len(names), regressions, threshold*100)
	if compared == 0 {
		return fmt.Errorf("metric filter matched nothing")
	}
	if regressions > 0 {
		return fmt.Errorf("%d metric(s) regressed by more than %.0f%%", regressions, threshold*100)
	}
	return nil
}

func run(label, out string) error {
	results, section, err := loadSection(label, out)
	if err != nil {
		return err
	}

	parsed := 0
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		if name, r, ok := parseLine(line); ok {
			section[name] = r
			parsed++
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if parsed == 0 {
		return fmt.Errorf("no benchmark lines found on stdin")
	}

	if err := saveSnapshot(out, results); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "pimflow-bench: recorded %d benchmarks under %q in %s\n", parsed, label, out)
	return nil
}

func main() {
	label := flag.String("label", "after", "section of the JSON file to record results under (compare: section read from the after file)")
	out := flag.String("out", "BENCH_PR7.json", "JSON snapshot file to merge results into")
	scenario := flag.String("scenario", "", "replay builtin load scenarios (comma-separated, or \"all\") instead of parsing go-test bench output")
	tracePath := flag.String("trace", "", "with -scenario: write a Chrome trace (request lanes + GPU/PIM timeline) to this file")
	certify := flag.Bool("certify", false, "with -scenario: record the schedule certificate and fail unless it passes every SR-* rule")
	doCompare := flag.Bool("compare", false, "compare two snapshot files (positional: before.json after.json); exit nonzero on regressions beyond -threshold")
	baselineLabel := flag.String("baseline-label", "after", "with -compare: section read from the before file")
	metrics := flag.String("metrics", "", "with -compare: restrict checks to these metrics (comma-separated units, optionally \"Benchmark:unit\"); empty checks everything")
	threshold := flag.Float64("threshold", 0.10, "with -compare: fractional regression tolerance")
	flag.Parse()
	var err error
	switch {
	case *doCompare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs two positional files: before.json after.json")
		} else {
			err = compare(flag.Arg(0), flag.Arg(1), *baselineLabel, *label, parseMetricFilter(*metrics), *threshold)
		}
	case *scenario != "":
		err = runScenarios(*label, *out, *scenario, *tracePath, *certify)
	default:
		err = run(*label, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pimflow-bench:", err)
		os.Exit(1)
	}
}
