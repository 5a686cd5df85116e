// Command pimflow-bench replays the builtin load scenarios
// deterministically and prints each replay's counts, simulated-latency
// percentiles, and the attributed stage split of its p99 request:
//
//	pimflow-bench -scenario poisson -certify -trace poisson.trace.json
//
// -scenario takes a comma-separated list of poisson, diurnal and bursty
// (one server each) and fleet1, fleet2 and fleet4 (the same Poisson
// workload on a fleet of 1, 2 or 4 machines); "all" stands for the first
// three and "fleet" for the last three. -certify records each
// single-server replay's schedule certificate and fails unless it passes
// every SR-* rule (fleet replays are always certified, FL-* and SR-*).
// -trace writes every replay into one Chrome trace: each machine's GPU
// and PIM timeline, and for the single-server replays a lane per
// in-flight request.
//
// The replays are deterministic, so every virtual metric printed here is
// pinned exactly by TestScenarioGolden. Wall-time performance is measured
// by the repository's benchmark, perfbench/.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"pimflow/internal/fleet"
	"pimflow/internal/load"
	"pimflow/internal/obs"
)

func main() {
	scenario := flag.String("scenario", "all", "builtin scenarios to replay, comma-separated: poisson, diurnal, bursty, fleet1, fleet2, fleet4, \"all\" (the first three) or \"fleet\" (the last three)")
	tracePath := flag.String("trace", "", "write a Chrome trace of the replays (GPU/PIM timeline, plus request lanes of the single-server replays) to this file")
	certify := flag.Bool("certify", false, "record each replay's schedule certificate and fail unless it passes every SR-* rule")
	flag.Parse()
	if err := run(*scenario, *tracePath, *certify); err != nil {
		fmt.Fprintln(os.Stderr, "pimflow-bench:", err)
		os.Exit(1)
	}
}

// run replays the listed scenarios in order, printing each one's report,
// and writes the shared trace at the end.
func run(list, tracePath string, certify bool) error {
	opts := load.RunOptions{RequestLog: 512, Certify: certify}
	if tracePath != "" {
		opts.Trace = obs.NewTrace()
	}
	for _, name := range scenarioNames(list) {
		rep, err := replay(name, opts)
		if err != nil {
			return fmt.Errorf("scenario %s: %w", name, err)
		}
		if machines, _ := fleetMachines(name); machines > 0 {
			fmt.Printf("scenario %-8s served %5d shed %5d p50 %d p99 %d p999 %d cycles (%.0f req/s, %d machines)\n",
				name, rep.Served, rep.Shed, rep.P50, rep.P99, rep.P999, rep.ReqPerSec, machines)
			if rep.Certified {
				fmt.Printf("  fleet certificate: %d leases verified clean (FL-* + SR-*)\n", rep.CertifiedLeases)
			}
			continue
		}
		fmt.Printf("scenario %-8s served %5d shed %5d slo_miss %5d p50 %d p99 %d p999 %d cycles (%.0f req/s)\n",
			name, rep.Served, rep.Shed, rep.SLOMiss, rep.P50, rep.P99, rep.P999, rep.ReqPerSec)
		if at := rep.Attributed; at != nil {
			fmt.Printf("  p99 split: batch_window %d + lease_wait %d + execute %d = %d cycles\n",
				at.P99.Stages.BatchWait, at.P99.Stages.LeaseWait, at.P99.Stages.Execute, at.P99.LatencyCycles)
		}
		if rep.Certified {
			fmt.Printf("  schedule certificate: %d leases verified clean (SR-*)\n", rep.CertifiedLeases)
		}
	}
	if tracePath == "" {
		return nil
	}
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
	return nil
}

// scenarioNames expands the -scenario list: "all" is the three
// single-server scenarios and "fleet" the three fleet scaling points.
func scenarioNames(list string) []string {
	var names []string
	for _, name := range strings.Split(list, ",") {
		switch name = strings.TrimSpace(name); name {
		case "":
		case "all":
			names = append(names, "poisson", "diurnal", "bursty")
		case "fleet":
			names = append(names, "fleet1", "fleet2", "fleet4")
		default:
			names = append(names, name)
		}
	}
	return names
}

// replay runs one builtin scenario: a fleet scaling point through
// fleetBuiltin on a fleet that draws into opts.Trace, anything else
// through one server under opts.
func replay(name string, opts load.RunOptions) (*load.Report, error) {
	machines, err := fleetMachines(name)
	if err != nil {
		return nil, err
	}
	if machines == 0 {
		sc, err := load.Builtin(name)
		if err != nil {
			return nil, err
		}
		return load.RunWithOptions(sc, opts)
	}
	sc, err := fleetBuiltin(machines)
	if err != nil {
		return nil, err
	}
	f, err := fleet.NewScenarioFleet(sc, nil, opts.Trace)
	if err != nil {
		return nil, err
	}
	defer f.Shutdown(context.Background())
	reqs, err := load.Generate(sc.Scenario)
	if err != nil {
		return nil, err
	}
	return fleet.Replay(f, sc, reqs)
}

// fleetMachines returns a fleet scaling point's machine count ("fleet2"
// is 2), or 0 for a name that does not start with "fleet".
func fleetMachines(name string) (int, error) {
	suffix, ok := strings.CutPrefix(name, "fleet")
	if !ok {
		return 0, nil
	}
	machines, err := strconv.Atoi(suffix)
	if err != nil || machines <= 0 {
		return 0, fmt.Errorf("unknown fleet scenario %q (fleet1, fleet2, fleet4, or \"fleet\" for all)", name)
	}
	return machines, nil
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
