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

// percentile returns the q-quantile of sorted latencies (nearest-rank):
// the sorting reference for the report's selected ranks.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(len(sorted), q)]
}

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
// order, and several SLO classes. The last seeds draw over 1 000
// records, where the p999 rank falls below the max.
func TestFinishReportMatchesReference(t *testing.T) {
	classes := []string{"gold", "silver", "bronze", ""}
	for seed := int64(1); seed <= 312; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(400)
		if seed > 300 {
			n = 1001 + rng.Intn(4000)
		}
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

// FuzzRanks checks the selected ranks against the sorted values'
// percentiles and max, and that the values come back reordered, never
// changed. Every two input bytes are one value, so inputs can hold ties
// and distinct values alike; the seeds add sizes 0 to 3, all-equal
// values, ascending and descending runs, a rise and fall, and random
// draws, each over 1 000 values long, where the p999 rank falls below
// the max.
func FuzzRanks(f *testing.F) {
	enc := func(vals ...int) []byte {
		b := make([]byte, 0, 2*len(vals))
		for _, v := range vals {
			b = append(b, byte(v), byte(v>>8))
		}
		return b
	}
	same, up, down := make([]int, 1500), make([]int, 3000), make([]int, 3000)
	for i := range up {
		up[i], down[i] = i, len(up)-i
	}
	for i := range same {
		same[i] = 7
	}
	f.Add([]byte{})
	f.Add(enc(5))
	f.Add(enc(9, 2))
	f.Add(enc(3, 1, 2))
	f.Add(enc(same...))
	f.Add(enc(up...))
	f.Add(enc(down...))
	f.Add(enc(append(slices.Clone(up[:1500]), down[1500:]...)...))
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		shuffled := make([]int, 1001+rng.Intn(4000))
		for i := range shuffled {
			shuffled[i] = rng.Intn(1 << 15)
		}
		f.Add(enc(shuffled...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := make([]int64, len(data)/2)
		for i := range vals {
			vals[i] = int64(int16(uint16(data[2*i]) | uint16(data[2*i+1])<<8))
		}
		sorted := slices.Clone(vals)
		slices.Sort(sorted)
		var want [4]int64
		if n := len(sorted); n > 0 {
			want = [4]int64{percentile(sorted, 0.50), percentile(sorted, 0.99), percentile(sorted, 0.999), sorted[n-1]}
		}
		p50, p99, p999, top := ranks(vals)
		if got := [4]int64{p50, p99, p999, top}; got != want {
			t.Fatalf("ranks of %d values = %v, sorted reference %v", len(vals), got, want)
		}
		slices.Sort(vals)
		if !slices.Equal(vals, sorted) {
			t.Fatal("ranks changed the values it reordered")
		}
	})
}

func cloneClassLat(m map[string][]int64) map[string][]int64 {
	out := make(map[string][]int64, len(m))
	for k, v := range m {
		out[k] = slices.Clone(v)
	}
	return out
}
