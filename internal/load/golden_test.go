package load

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
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
