package serve

import (
	"context"
	"sort"
	"testing"

	"pimflow/internal/obs"
)

// TestStageDecompositionPartitionsLatency pins the attribution identity:
// for every served request BatchWait + LeaseWait + Execute equals the
// end-to-end virtual latency exactly, and BatchWait + LeaseWait equals
// the pre-existing QueueCycles.
func TestStageDecompositionPartitionsLatency(t *testing.T) {
	s := newTestServer(t, Config{MaxBatch: 4, RequestLog: 16})
	reqs := []InferRequest{
		{Model: "toy-a", ArrivalCycle: 100},
		{Model: "toy-a", ArrivalCycle: 250},
		{Model: "toy-a", ArrivalCycle: 400},
	}
	outs, err := s.InferBatch(context.Background(), reqs, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("member %d: %v", i, o.Err)
		}
		r := o.Resp
		if got := r.BatchWaitCycles + r.LeaseWaitCycles + r.ExecuteCycles; got != r.LatencyCycles {
			t.Errorf("member %d: stages sum to %d, latency %d", i, got, r.LatencyCycles)
		}
		if got := r.BatchWaitCycles + r.LeaseWaitCycles; got != r.QueueCycles {
			t.Errorf("member %d: wait stages sum to %d, queueCycles %d", i, got, r.QueueCycles)
		}
		if r.RequestID == "" {
			t.Errorf("member %d: no request ID with RequestLog on", i)
		}
	}
	// The latest member forms the batch: its batch wait is zero; the
	// earliest member waited 300 cycles for it.
	if outs[2].Resp.BatchWaitCycles != 0 {
		t.Errorf("latest member batch wait = %d, want 0", outs[2].Resp.BatchWaitCycles)
	}
	if outs[0].Resp.BatchWaitCycles != 300 {
		t.Errorf("earliest member batch wait = %d, want 300", outs[0].Resp.BatchWaitCycles)
	}
}

// TestLifecycleRingRecordsOutcomes drives served and violated requests
// through the pipeline and checks the ring, filters, and ID minting.
func TestLifecycleRingRecordsOutcomes(t *testing.T) {
	s := newTestServer(t, Config{MaxBatch: 2, RequestLog: 8})
	ctx := context.Background()
	if _, err := s.InferBatch(ctx, []InferRequest{{Model: "toy-a", ArrivalCycle: 10}}, BatchOptions{}); err != nil {
		t.Fatal(err)
	}
	// An impossible virtual deadline violates at placement.
	outs, err := s.InferBatch(ctx, []InferRequest{{Model: "toy-b", ArrivalCycle: 20, DeadlineCycles: 1}}, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Err == nil {
		t.Fatal("impossible deadline served")
	}

	lc := s.Lifecycle()
	if lc == nil {
		t.Fatal("lifecycle off despite RequestLog")
	}
	if lc.Total() != 2 {
		t.Fatalf("recorded %d spans, want 2", lc.Total())
	}
	all := lc.Recent(SpanFilter{})
	if len(all) != 2 {
		t.Fatalf("ring holds %d spans, want 2", len(all))
	}
	// Newest first: the violated toy-b request leads.
	if all[0].Outcome != OutcomeViolated || all[0].Model != "toy-b" {
		t.Errorf("newest span %+v, want violated toy-b", all[0])
	}
	if all[1].Outcome != OutcomeServed || all[1].Stages.Total() != all[1].LatencyCycles {
		t.Errorf("served span %+v: stage total %d vs latency %d", all[1], all[1].Stages.Total(), all[1].LatencyCycles)
	}
	if all[0].ID == all[1].ID || all[0].ID == "" {
		t.Errorf("IDs not unique: %q %q", all[0].ID, all[1].ID)
	}
	// Filters.
	if got := lc.Recent(SpanFilter{Outcome: OutcomeServed}); len(got) != 1 || got[0].Model != "toy-a" {
		t.Errorf("outcome filter: %+v", got)
	}
	if got := lc.Recent(SpanFilter{Model: "toy-b"}); len(got) != 1 || got[0].Outcome != OutcomeViolated {
		t.Errorf("model filter: %+v", got)
	}
	if got := lc.Recent(SpanFilter{N: 1}); len(got) != 1 {
		t.Errorf("N filter returned %d", len(got))
	}
}

// TestLifecycleRingWraps overflows the ring and checks only the newest
// cap spans are retained.
func TestLifecycleRingWraps(t *testing.T) {
	s := newTestServer(t, Config{RequestLog: 3})
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := s.InferBatch(ctx, []InferRequest{{Model: "toy-a", ArrivalCycle: int64(10 + i)}}, BatchOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	lc := s.Lifecycle()
	if lc.Total() != 5 {
		t.Fatalf("total %d, want 5", lc.Total())
	}
	spans := lc.Recent(SpanFilter{})
	if len(spans) != 3 {
		t.Fatalf("ring holds %d, want 3", len(spans))
	}
	var ids []string
	for _, sp := range spans {
		ids = append(ids, sp.ID)
	}
	if !sort.SliceIsSorted(ids, func(i, j int) bool { return ids[i] > ids[j] }) {
		t.Errorf("spans not newest-first: %v", ids)
	}
	if ids[0] != "r000005" || ids[2] != "r000003" {
		t.Errorf("ring kept %v, want r000005..r000003", ids)
	}
}

// TestStageHistogramsAndBreakdown checks the labeled stage histograms,
// their exemplars, and the latency-breakdown projection GET /v1/machines
// serves.
func TestStageHistogramsAndBreakdown(t *testing.T) {
	s := newTestServer(t, Config{RequestLog: 8})
	if _, err := s.InferBatch(context.Background(), []InferRequest{{Model: "toy-a", ArrivalCycle: 10}}, BatchOptions{}); err != nil {
		t.Fatal(err)
	}
	snap := s.Metrics().Snapshot()
	key := obs.LabeledKey("serve.stage_cycles", "model", "toy-a", "slo", "best-effort", "stage", "execute")
	h, ok := snap.Histograms[key]
	if !ok {
		var have []string
		for k := range snap.Histograms {
			have = append(have, k)
		}
		t.Fatalf("no %q histogram; have %v", key, have)
	}
	if h.Count != 1 {
		t.Errorf("execute stage count %d", h.Count)
	}
	var exemplar string
	for _, id := range h.Exemplars {
		exemplar = id
	}
	if exemplar != "r000001" {
		t.Errorf("exemplar %q, want r000001", exemplar)
	}

	bd := s.LatencyBreakdown()
	b, ok := bd["toy-a"]
	if !ok {
		t.Fatalf("no toy-a breakdown: %v", bd)
	}
	if b.Count != 1 || len(b.Stages) != 4 {
		t.Errorf("breakdown %+v, want count 1 and 4 stages", b)
	}
	for _, st := range stageNames {
		if _, ok := b.Stages[st]; !ok {
			t.Errorf("breakdown missing stage %q", st)
		}
	}
}

// TestRequestLaneInTrace checks that a served request shows up as a
// request lane spanning arrival to completion in the shared trace.
func TestRequestLaneInTrace(t *testing.T) {
	tr := obs.NewTrace()
	s := newTestServer(t, Config{RequestLog: 8, Trace: tr})
	outs, err := s.InferBatch(context.Background(), []InferRequest{{Model: "toy-a", ArrivalCycle: 1000}}, BatchOptions{})
	if err != nil || outs[0].Err != nil {
		t.Fatal(err, outs[0].Err)
	}
	r := outs[0].Resp
	var lane, stages int
	for _, e := range tr.Events() {
		if e.PID != obs.PIDRequests || e.Phase != "X" {
			continue
		}
		switch e.Cat {
		case "serve.request":
			lane++
			if e.TS != float64(r.ArrivalCycle)/1e3 {
				t.Errorf("lane ts %v, arrival %d", e.TS, r.ArrivalCycle)
			}
			if got := e.TS + e.Dur; got != float64(r.EndCycle)/1e3 {
				t.Errorf("lane end %v, endCycle %d", got, r.EndCycle)
			}
		case "serve.request.stage":
			stages++
		}
	}
	if lane != 1 {
		t.Fatalf("request lanes = %d, want 1", lane)
	}
	if stages == 0 {
		t.Error("no stage slices on the request lane")
	}
}

// TestFinishOffPathAllocFree proves item completion allocates nothing
// when request logging is off — the lifecycle hook must cost a nil check
// and nothing else.
func TestFinishOffPathAllocFree(t *testing.T) {
	it := &item{reply: make(chan result, 1)}
	resp := &InferResponse{}
	allocs := testing.AllocsPerRun(200, func() {
		it.finish(resp, nil)
		<-it.reply
	})
	if allocs != 0 {
		t.Fatalf("off-path finish allocates %v per op, want 0", allocs)
	}
}

// BenchmarkFinishRequestLogOff is the off-path cost of the lifecycle
// hook: a nil check on top of the reply-channel send.
func BenchmarkFinishRequestLogOff(b *testing.B) {
	it := &item{reply: make(chan result, 1)}
	resp := &InferResponse{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		it.finish(resp, nil)
		<-it.reply
	}
}
