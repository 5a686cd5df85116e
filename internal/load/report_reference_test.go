package load

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pimflow/internal/serve"
)

// refFinishReport is the record-sorting report builder, kept as the
// oracle of TestFinishReportMatchesReference: it stable-sorts the whole
// record set by (latency, request ID) and reads the attributed requests
// off the sorted records.
func refFinishReport(rep *Report, recs []latRec, classLat map[string][]int64, batchSum, makespan int64) {
	// Ties break on request ID (deterministic in single-threaded replay),
	// then stably on append order.
	slices.SortStableFunc(recs, func(a, b latRec) int {
		if c := cmp.Compare(a.lat, b.lat); c != 0 {
			return c
		}
		return strings.Compare(a.id, b.id)
	})
	lat := make([]int64, len(recs))
	for i, r := range recs {
		lat[i] = r.lat
	}
	rep.P50 = percentile(lat, 0.50)
	rep.P99 = percentile(lat, 0.99)
	rep.P999 = percentile(lat, 0.999)
	if n := len(recs); n > 0 {
		rep.MaxLatency = lat[n-1]
		var sum int64
		for _, l := range lat {
			sum += l
		}
		rep.MeanLatency = float64(sum) / float64(n)
		rep.MeanBatch = float64(batchSum) / float64(n)
		rep.Stages = refStageStats(recs)
		rep.Attributed = &Attributed{
			P50:  refAttributedAt(recs, 0.50),
			P99:  refAttributedAt(recs, 0.99),
			P999: refAttributedAt(recs, 0.999),
		}
	}
	rep.MakespanCycles = makespan
	for _, cls := range sortedModels(classLat) {
		ls := classLat[cls]
		slices.Sort(ls)
		cs := rep.Classes[cls]
		cs.P50 = percentile(ls, 0.50)
		cs.P99 = percentile(ls, 0.99)
		cs.P999 = percentile(ls, 0.999)
		cs.MaxCycle = ls[len(ls)-1]
		rep.Classes[cls] = cs
	}
	if rep.WallSeconds > 0 {
		rep.ReqPerSec = float64(rep.Served) / rep.WallSeconds
	}
}

// refAttributedAt returns the stage split of the request at the q-quantile
// rank of the sorted records (same nearest-rank convention as
// percentile, so its LatencyCycles equals the reported percentile and
// its stages sum to it exactly).
func refAttributedAt(sorted []latRec, q float64) AttributedRequest {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	r := sorted[i]
	return AttributedRequest{RequestID: r.id, Model: r.model, LatencyCycles: r.lat, Stages: r.stages}
}

// refStageStats computes each stage's independent distribution.
func refStageStats(recs []latRec) map[string]StageStats {
	cols := map[string][]int64{}
	for _, r := range recs {
		cols["queue"] = append(cols["queue"], r.stages.Queue)
		cols["batch_window"] = append(cols["batch_window"], r.stages.BatchWait)
		cols["lease_wait"] = append(cols["lease_wait"], r.stages.LeaseWait)
		cols["execute"] = append(cols["execute"], r.stages.Execute)
	}
	out := make(map[string]StageStats, len(cols))
	for _, name := range sortedModels(cols) {
		vals := cols[name]
		slices.Sort(vals)
		var sum int64
		for _, v := range vals {
			sum += v
		}
		out[name] = StageStats{
			P50:  percentile(vals, 0.50),
			P99:  percentile(vals, 0.99),
			P999: percentile(vals, 0.999),
			Max:  vals[len(vals)-1],
			Mean: float64(sum) / float64(len(vals)),
		}
	}
	return out
}

// TestFinishReportMatchesReference compares finishReport with the
// record-sorting reference on seeded record sets: latencies drawn from a
// handful of values so ties are heavy, IDs on some sets and absent on
// others (replays without request logging carry none), shuffled arrival
// order, and several SLO classes.
func TestFinishReportMatchesReference(t *testing.T) {
	classes := []string{"gold", "silver", "bronze", ""}
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(400)
		distinct := 1 + rng.Intn(12)
		withIDs := seed%2 == 0
		recs := make([]latRec, n)
		classLat := map[string][]int64{}
		var batchSum, makespan int64
		for i := range recs {
			st := serve.StageCycles{
				BatchWait: int64(rng.Intn(3)) * 100,
				LeaseWait: int64(rng.Intn(distinct)) * 1000,
			}
			st.Execute = 5000 + int64(rng.Intn(2))*500
			r := latRec{lat: st.Total(), model: fmt.Sprintf("m%d", rng.Intn(3)), stages: st}
			if withIDs {
				// IDs repeat and run out of order, so the ID tie-break and
				// the arrival-order fallback both decide ranks.
				r.id = fmt.Sprintf("r%06d", rng.Intn(n))
			}
			recs[i] = r
			cls := classes[rng.Intn(len(classes))]
			classLat[cls] = append(classLat[cls], r.lat)
			batchSum += int64(1 + rng.Intn(8))
			makespan = max(makespan, int64(rng.Intn(1_000_000)))
		}
		got := Report{Classes: map[string]ClassStats{}, WallSeconds: 2}
		want := Report{Classes: map[string]ClassStats{}, WallSeconds: 2}
		finishReport(&got, slices.Clone(recs), cloneClassLat(classLat), batchSum, makespan)
		refFinishReport(&want, slices.Clone(recs), cloneClassLat(classLat), batchSum, makespan)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d (n=%d, ids=%v): report differs from the reference\n got %+v\nwant %+v",
				seed, n, withIDs, got, want)
		}
	}
	// No served request: both leave the per-request sections empty.
	var got, want Report
	got.Classes, want.Classes = map[string]ClassStats{}, map[string]ClassStats{}
	finishReport(&got, nil, map[string][]int64{}, 0, 7)
	refFinishReport(&want, nil, map[string][]int64{}, 0, 7)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("empty report differs:\n got %+v\nwant %+v", got, want)
	}
}

func cloneClassLat(m map[string][]int64) map[string][]int64 {
	out := make(map[string][]int64, len(m))
	for k, v := range m {
		out[k] = slices.Clone(v)
	}
	return out
}
