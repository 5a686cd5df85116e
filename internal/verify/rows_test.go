package verify_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pimflow/internal/serve"
	"pimflow/internal/verify"
)

// The paged-view differential tests: a certificate checked as row views
// split into pages must draw exactly the diagnostics of its one-page
// check and of the references, so the checks' page walks, the lease
// index that points at rows and the gate lookup across hop pages are
// held to the slice-based references on every reference-test input.

// pageSplits are the page sizes the paged views take; 0 stands for the
// pages a recorder's log (serve.CertLog) holds.
var pageSplits = []int{1, 2, 3, 7, 0}

// pagedRows views rows in pages of k rows, or for k == 0 as a recorder's
// log holds them.
func pagedRows[T any](rows []T, k int) verify.Rows[T] {
	if k == 0 {
		var l serve.CertLog[T]
		for _, r := range rows {
			l.Append(r)
		}
		return l.View()
	}
	var pages [][]T
	for len(rows) > k {
		pages, rows = append(pages, rows[:k:k]), rows[k:]
	}
	return verify.RowsOf(append(pages, rows)...)
}

// pagedSchedule views c's tables in pages of k rows.
func pagedSchedule(c verify.ScheduleCertificate, k int) verify.ScheduleView {
	v := c.View()
	v.Leases, v.Requests, v.Frontiers = pagedRows(c.Leases, k), pagedRows(c.Requests, k), pagedRows(c.Frontiers, k)
	return v
}

// pagedFleet views c's hop table and every machine's schedule in pages
// of k rows.
func pagedFleet(c verify.FleetCertificate, k int) verify.FleetView {
	v := c.View()
	v.Hops = pagedRows(c.Hops, k)
	for name, s := range c.Schedules {
		v.Schedules[name] = pagedSchedule(s, k)
	}
	return v
}

// samePagedSchedule checks c as one page and as paged views of every
// split against want, the reference's diagnostics.
func samePagedSchedule(t *testing.T, what string, c verify.ScheduleCertificate, want []verify.Diagnostic) {
	t.Helper()
	sameDiags(t, what, verify.Schedule(c), want)
	for _, k := range pageSplits {
		sameDiags(t, fmt.Sprintf("%s in pages of %d", what, k), pagedSchedule(c, k).Check(), want)
	}
}

// samePagedFleet is samePagedSchedule for fleet certificates.
func samePagedFleet(t *testing.T, what string, c verify.FleetCertificate, want []verify.Diagnostic) {
	t.Helper()
	sameDiags(t, what, verify.Fleet(c), want)
	for _, k := range pageSplits {
		sameDiags(t, fmt.Sprintf("%s in pages of %d", what, k), pagedFleet(c, k).Check(), want)
	}
}

// TestPagedViewsMatchReference checks the inputs of the reference tests
// as paged views: the replay certificates of
// TestScheduleMatchesReferenceOnReplay, and the seeded forgeries of
// TestScheduleMatchesReferenceOnForgeries,
// TestScheduleMatchesReferenceOnBackSteps and
// TestFleetMatchesReferenceOnForgeries, drawn from the same seeds.
func TestPagedViewsMatchReference(t *testing.T) {
	for _, name := range []string{"poisson", "diurnal", "bursty"} {
		c := scenarioCert(t, name, 3000)
		samePagedSchedule(t, name+" replay", c, verify.ReferenceSchedule(c))
	}
	for _, machines := range []int{1, 2, 4} {
		fc := fleetScaleCert(t, machines, 3000)
		samePagedFleet(t, fmt.Sprintf("fleet%d replay", machines), fc, verify.ReferenceFleet(fc))
	}
	fc := graphFleetCert(t, 3000)
	samePagedFleet(t, "fleet-graph replay", fc, verify.ReferenceFleet(fc))

	base := burstyCert(t, 400)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		c := forgeSchedule(rng, base)
		samePagedSchedule(t, fmt.Sprintf("forgery %d", i), c, verify.ReferenceSchedule(c))
	}

	names := make([]string, 0, len(fc.Schedules))
	for name := range fc.Schedules {
		names = append(names, name)
	}
	slices.Sort(names)
	rng = rand.New(rand.NewSource(1))
	for _, name := range names {
		s := fc.Schedules[name]
		if len(s.Leases) < 4 || len(s.Frontiers) < 2 {
			continue
		}
		for i := 0; i < 400; i++ {
			c := forgeSchedule(rng, s)
			samePagedSchedule(t, fmt.Sprintf("%s forgery %d", name, i), c, verify.ReferenceSchedule(c))
		}
	}

	fbase, machines, busy := fleetForgeryInputs(t)
	rng = rand.New(rand.NewSource(1))
	for i := 0; i < 1500; i++ {
		c := forgeFleet(rng, fbase, machines, busy)
		samePagedFleet(t, fmt.Sprintf("fleet forgery %d", i), c, verify.ReferenceFleet(c))
	}
}

// straddleSchedule is a forged schedule certificate whose cross-row
// references straddle a page at every split of pageSplits but the
// recorder's: a request off its lease's window and a frontier before
// its lease's end both name the last lease, pages into the lease table,
// and a lease ID recurs pages after its first lease.
func straddleSchedule() verify.ScheduleCertificate {
	lease := func(id uint64, start int64, batch int) verify.ScheduleLease {
		return verify.ScheduleLease{ID: id, Model: "a", Start: start, End: start + 10, GPU: 2, PIM: 2, Batch: batch}
	}
	req := func(lease uint64, arrival, start int64) verify.ScheduleRequest {
		return verify.ScheduleRequest{ID: fmt.Sprintf("r%d-%d", lease, arrival), Model: "a", LeaseID: lease,
			Arrival: arrival, BatchArrival: arrival, Start: start, End: start + 10, LeaseWait: start - arrival,
			Execute: 10, Latency: start + 10 - arrival}
	}
	return verify.ScheduleCertificate{
		GPUChannels: 4, PIMChannels: 4,
		Leases: []verify.ScheduleLease{
			lease(1, 0, 1), lease(2, 10, 1), lease(3, 20, 2), lease(4, 30, 1),
			lease(5, 40, 1), lease(6, 50, 1), lease(8, 70, 1),
			lease(3, 60, 2), // a duplicate ID, and a back-step in start order
			lease(9, 80, 1),
		},
		Requests: []verify.ScheduleRequest{
			req(9, 80, 80), req(1, 0, 0), req(2, 5, 10), req(3, 15, 20), req(3, 18, 20),
			req(4, 30, 30), req(5, 40, 40), req(6, 50, 50), req(8, 70, 70),
			req(9, 75, 82), // outside lease 9's window
		},
		Frontiers: []verify.ScheduleFrontier{
			{LeaseID: 1, Frontier: 10}, {LeaseID: 2, Frontier: 20}, {LeaseID: 3, Frontier: 30},
			{LeaseID: 4, Frontier: 40}, {LeaseID: 5, Frontier: 50}, {LeaseID: 6, Frontier: 60},
			{LeaseID: 8, Frontier: 80},
			{LeaseID: 9, Frontier: 85}, // before lease 9's end
		},
		Policies: map[string]verify.SchedulePolicy{"a": {MaxBatch: 4}},
	}
}

// straddleFleet is a forged fleet certificate whose gated hops sit pages
// away from their gates at every split of pageSplits but the recorder's:
// a clean gate pages back, a gate that ends after its hop arrives, a
// gate on another route, a gate on a later page that ends after its hop
// arrives, and a gate out of range.
func straddleFleet() verify.FleetCertificate {
	hop := func(route int64, arrival int64, after int) verify.FleetHop {
		return verify.FleetHop{Route: route, Model: "a", Machine: "m0", Arrival: arrival, End: arrival + 10, After: after}
	}
	return verify.FleetCertificate{
		Machines:   []verify.FleetMachine{{Name: "m0", GPUChannels: 4, PIMChannels: 4}},
		Placements: []verify.FleetPlacement{{Model: "a", Machine: "m0", GPU: 2, PIM: 2, Active: true}},
		Hops: []verify.FleetHop{
			hop(1, 0, -1), hop(2, 0, -1), hop(3, 0, -1), hop(4, 0, -1),
			hop(6, 0, -1), hop(7, 0, -1), hop(8, 0, -1), hop(9, 0, -1),
			hop(1, 10, 0), hop(2, 5, 1), hop(5, 20, 2), hop(3, 12, 15), hop(4, 30, 42),
			hop(10, 0, -1), hop(11, 0, -1),
			hop(3, 40, 2),
		},
	}
}

// The straddling forgeries draw the references' diagnostics at every
// split, and each fires the rule its cross-page reference breaks.
func TestStraddlingForgeriesMatchReference(t *testing.T) {
	c := straddleSchedule()
	want := verify.ReferenceSchedule(c)
	samePagedSchedule(t, "straddling schedule", c, want)
	fc := straddleFleet()
	fwant := verify.ReferenceFleet(fc)
	samePagedFleet(t, "straddling fleet", fc, fwant)
	count := map[string]int{}
	for _, d := range append(want, fwant...) {
		count[d.Rule]++
	}
	for rule, n := range map[string]int{verify.RuleSchedDemand: 1, verify.RuleSchedLease: 1,
		verify.RuleSchedFrontier: 1, verify.RuleFleetRoute: 4} {
		if count[rule] != n {
			t.Errorf("%s fired %d times, want %d: %v %v", rule, count[rule], n, want, fwant)
		}
	}
}
