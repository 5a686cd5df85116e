package serve

import (
	"context"
	"testing"
	"time"

	"pimflow/internal/verify"
)

// TestCertificateOffByDefault: without Config.Certify the server records
// nothing and reports an empty (machine-only) certificate.
func TestCertificateOffByDefault(t *testing.T) {
	s := newTestServer(t, Config{})
	if s.Certifying() {
		t.Fatal("Certifying() true without Config.Certify")
	}
	if _, err := s.Infer(context.Background(), InferRequest{Model: "toy-a"}); err != nil {
		t.Fatal(err)
	}
	cert := s.Certificate()
	if len(cert.Leases) != 0 || len(cert.Requests) != 0 || len(cert.Frontiers) != 0 {
		t.Fatalf("certificate recorded without Certify: %+v", cert)
	}
	if cert.GPUChannels != 16 || cert.PIMChannels != 16 {
		t.Fatalf("empty certificate lost the machine dims: %+v", cert)
	}
}

// TestCertificateRecordsServedSchedule drives both the live path (Infer)
// and the replay path (InferBatch) and checks the recorded certificate
// is complete, consistent, and passes every SR-* rule.
func TestCertificateRecordsServedSchedule(t *testing.T) {
	s := newTestServer(t, Config{Certify: true, MaxBatch: 4})
	if !s.Certifying() {
		t.Fatal("Certifying() false with Config.Certify")
	}
	ctx := context.Background()
	if _, err := s.Infer(ctx, InferRequest{Model: "toy-a"}); err != nil {
		t.Fatal(err)
	}
	// A pinned-arrival batch through the synchronous replay entry point.
	outs, err := s.InferBatch(ctx, []InferRequest{
		{Model: "toy-b", ArrivalCycle: 1_000},
		{Model: "toy-b", ArrivalCycle: 1_200},
	}, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outs {
		if o.Err != nil {
			t.Fatal(o.Err)
		}
	}

	cert := s.Certificate()
	if len(cert.Leases) != 2 {
		t.Fatalf("want 2 leases, got %+v", cert.Leases)
	}
	if len(cert.Requests) != 3 {
		t.Fatalf("want 3 requests, got %+v", cert.Requests)
	}
	if len(cert.Frontiers) != 2 {
		t.Fatalf("want 2 frontier stamps, got %+v", cert.Frontiers)
	}
	if _, ok := cert.Policies["toy-a"]; !ok {
		t.Fatalf("policies missing toy-a: %+v", cert.Policies)
	}
	if diags := verify.Schedule(cert); len(diags) != 0 {
		t.Fatalf("served schedule failed its own certificate: %v", diags)
	}
}

// A name reloaded with a smaller batch policy keeps its earlier leases
// checked against the policy they were batched under: the certificate
// holds the name's first policy by model, and the policy of a lease
// batched under another one by lease ID, which SR-WINDOW then enforces.
func TestCertificateChecksEachLeaseAgainstItsOwnPolicy(t *testing.T) {
	s := newTestServer(t, Config{Certify: true})
	ctx := context.Background()
	serve := func(maxBatch, n int) {
		t.Helper()
		spec := toySpec("m")
		spec.MaxBatch = maxBatch
		if _, err := s.Registry().Load(spec); err != nil {
			t.Fatal(err)
		}
		reqs := make([]InferRequest, n)
		for i := range reqs {
			reqs[i] = InferRequest{Model: "m", ArrivalCycle: 1_000}
		}
		outs, err := s.InferBatch(ctx, reqs, BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range outs {
			if o.Err != nil {
				t.Fatal(o.Err)
			}
		}
	}
	serve(8, 4)
	if err := s.Registry().Unload("m"); err != nil {
		t.Fatal(err)
	}
	serve(2, 2)

	cert := s.Certificate()
	if diags := verify.Schedule(cert); len(diags) != 0 {
		t.Fatalf("a reloaded name failed its own certificate: %v", diags)
	}
	if len(cert.Leases) != 2 || cert.Policies["m"].MaxBatch != 8 || len(cert.LeasePolicies) != 1 ||
		cert.LeasePolicies[cert.Leases[1].ID].MaxBatch != 2 {
		t.Fatalf("policies %+v, lease policies %+v: want the first policy by model and the second by lease",
			cert.Policies, cert.LeasePolicies)
	}
	cert.LeasePolicies[cert.Leases[1].ID] = verify.SchedulePolicy{MaxBatch: 1}
	if diags := verify.Schedule(cert); len(diags) != 1 || diags[0].Rule != verify.RuleSchedWindow {
		t.Fatalf("lease over its own policy: got %v, want one %s", diags, verify.RuleSchedWindow)
	}
}

// A live batch is formed under its model's MaxBatch and wall window; the
// dispatcher never applies the virtual window, and each member keeps the
// stamp it was admitted with. Here a toy-a request opens a windowed
// batch at frontier 0, a toy-b request is served meanwhile, and a second
// toy-a request joins the batch stamped at toy-b's end. The certificate
// records the live batch without the virtual window, so SR-WINDOW holds
// it to the policy it was formed under; recording the model's
// WindowCycles would fail this correct schedule with SR-WINDOW.
func TestLiveBatchRecordsNoVirtualWindow(t *testing.T) {
	s, err := NewServer(Config{Certify: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdownNow(s) })
	windowed := toySpec("toy-a")
	windowed.MaxBatch, windowed.BatchWindowMillis, windowed.BatchWindowCycles = 2, 60_000, 1
	for _, spec := range []ModelSpec{windowed, toySpec("toy-b")} {
		if _, err := s.Registry().Load(spec); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	first := make(chan *InferResponse, 1)
	go func() {
		resp, err := s.Infer(ctx, InferRequest{Model: "toy-a"})
		if err != nil {
			t.Error(err)
		}
		first <- resp
	}()
	for s.Metrics().Gauge("serve.batch_pending") != 1 {
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Infer(ctx, InferRequest{Model: "toy-b"}); err != nil {
		t.Fatal(err)
	}
	second, err := s.Infer(ctx, InferRequest{Model: "toy-a"})
	if err != nil {
		t.Fatal(err)
	}
	a := <-first
	if a == nil {
		t.FailNow()
	}
	if second.BatchSize != 2 || second.ArrivalCycle-a.ArrivalCycle <= windowed.BatchWindowCycles {
		t.Fatalf("batch of %d with arrivals %d and %d; want two members stamped over the virtual window apart",
			second.BatchSize, a.ArrivalCycle, second.ArrivalCycle)
	}
	cert := s.Certificate()
	if diags := verify.Schedule(cert); len(diags) != 0 {
		t.Fatalf("a live batch failed its certificate: %v", diags)
	}
	if pol := cert.Policies["toy-a"]; pol != (verify.SchedulePolicy{MaxBatch: 2}) {
		t.Fatalf("toy-a recorded policy %+v, want MaxBatch 2 and no virtual window", pol)
	}
}

// TestCertificateRejectsForgery is the end-to-end acceptance check: take
// a genuinely served certificate, inject an overlapping lease the
// scheduler would never have granted, and watch verify.Schedule reject
// it with SR-OVERLAP specifically.
func TestCertificateRejectsForgery(t *testing.T) {
	s := newTestServer(t, Config{Certify: true})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := s.Infer(ctx, InferRequest{Model: "toy-a"}); err != nil {
			t.Fatal(err)
		}
	}
	cert := s.Certificate()
	if diags := verify.Schedule(cert); len(diags) != 0 {
		t.Fatalf("pre-forgery certificate dirty: %v", diags)
	}

	// Forge a lease shadowing the first real one with the full machine:
	// together they oversubscribe both channel groups.
	src := cert.Leases[0]
	forged := verify.ScheduleLease{
		ID: 9999, Model: src.Model, Start: src.Start, End: src.End,
		GPU: cert.GPUChannels, PIM: cert.PIMChannels, Batch: 1,
	}
	cert.Leases = append(cert.Leases, forged)
	cert.Requests = append(cert.Requests, verify.ScheduleRequest{
		ID: "forged", Model: src.Model, LeaseID: 9999,
		Arrival: src.Start, BatchArrival: src.Start, Start: src.Start, End: src.End,
		Execute: src.End - src.Start, Latency: src.End - src.Start,
	})
	diags := verify.Schedule(cert)
	if len(diags) == 0 {
		t.Fatal("forged overlapping lease accepted")
	}
	for _, d := range diags {
		if d.Rule != verify.RuleSchedOverlap {
			t.Fatalf("want only %s, got %v", verify.RuleSchedOverlap, diags)
		}
	}
}

// TestCertificateFrontierOrder pins the recording discipline: frontier
// stamps are appended under the scheduler lock in release order, so the
// recorded sequence is nondecreasing even with concurrent workers.
func TestCertificateFrontierOrder(t *testing.T) {
	s := newTestServer(t, Config{Certify: true})
	ctx := context.Background()
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		model := "toy-a"
		if i%2 == 1 {
			model = "toy-b"
		}
		go func() {
			_, err := s.Infer(ctx, InferRequest{Model: model})
			done <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	cert := s.Certificate()
	var prev int64
	for i, f := range cert.Frontiers {
		if f.Frontier < prev {
			t.Fatalf("frontier stamp %d rewound: %+v", i, cert.Frontiers)
		}
		prev = f.Frontier
	}
	if diags := verify.Schedule(cert); len(diags) != 0 {
		t.Fatalf("concurrent schedule failed certification: %v", diags)
	}
}
