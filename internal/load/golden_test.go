package load

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"pimflow/internal/obs"
)

// replayDigest is the SHA-256 of a replay's JSON report, wall-clock
// fields zeroed, followed by the JSON of its certificate.
func replayDigest(t testing.TB, rep *Report, cert any) string {
	t.Helper()
	h := sha256.New()
	for _, v := range []any{stripWall(rep), cert} {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestReplayGolden pins load.Replay of the builtin bursty scenario (seed
// 1, 30 000 requests) under both open-loop admission policies: the
// report and the server's schedule certificate, lease for lease. The
// digests were computed on the replay loop serve.VirtualQueue replaced,
// so a moved digest is a change of replay behaviour.
func TestReplayGolden(t *testing.T) {
	for _, tc := range []struct{ admission, want string }{
		{"shed-oldest", "54d1c0cd664854afa9b590593ad4d5e9c9bcd1653b57a948e4e56ee207e0f225"},
		{"reject", "efbb4c94dd773cda5484171dd87e61f9e05e71998dbaf27c02ccefa76ddb4e14"},
	} {
		t.Run(tc.admission, func(t *testing.T) {
			sc, err := Builtin("bursty")
			if err != nil {
				t.Fatal(err)
			}
			sc.Seed, sc.Requests, sc.Admission = 1, 30_000, tc.admission
			reqs, err := Generate(sc)
			if err != nil {
				t.Fatal(err)
			}
			srv := newScenarioServer(t, sc)
			rep, err := Replay(srv, sc, reqs)
			if err != nil {
				t.Fatal(err)
			}
			if got := replayDigest(t, rep, srv.Certificate()); got != tc.want {
				t.Fatalf("replay digest %s, want %s", got, tc.want)
			}
		})
	}
}

// tracedReplayDigest is simulatedTraceDigest's value for the replay of
// TestTracedReplayGolden, computed when a traced replay had to re-execute
// every batch to draw its GPU/PIM timeline.
const tracedReplayDigest = "4d50604e9c0763c62bd051bde4b19926c500c90e921e0c65ca6441a61bc04c42"

// TestTracedReplayGolden pins the simulated-time half of a traced replay
// (builtin bursty, seed 1, 2 000 requests, request log on): every node
// span and merge-sync instant at its lease offset, every request lane,
// and the trace meta.
func TestTracedReplayGolden(t *testing.T) {
	sc, err := Builtin("bursty")
	if err != nil {
		t.Fatal(err)
	}
	sc.Seed, sc.Requests = 1, 2_000
	tr := obs.NewTrace()
	rep, err := RunWithOptions(sc, RunOptions{Trace: tr, RequestLog: 64})
	if err != nil {
		t.Fatal(err)
	}
	spans := 0
	for _, e := range tr.Events() {
		if e.PID == obs.PIDTimeline && e.Phase == "X" {
			spans++
		}
	}
	if rep.Served == 0 || spans == 0 {
		t.Fatalf("served %d, %d node spans", rep.Served, spans)
	}
	if got := simulatedTraceDigest(t, tr); got != tracedReplayDigest {
		t.Errorf("trace digest %s, want %s", got, tracedReplayDigest)
	}
}

// simulatedTraceDigest digests a trace's simulated-time events (the
// PIDTimeline and PIDRequests processes, metadata included) in export
// order, followed by its meta; the wall-clock PIDCompile spans are left
// out.
func simulatedTraceDigest(t *testing.T, tr *obs.Trace) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []obs.Event    `json:"traceEvents"`
		OtherData   map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	kept := doc.TraceEvents[:0]
	for _, e := range doc.TraceEvents {
		if e.PID == obs.PIDTimeline || e.PID == obs.PIDRequests {
			kept = append(kept, e)
		}
	}
	b, err := json.Marshal(map[string]any{"events": kept, "meta": doc.OtherData})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}
