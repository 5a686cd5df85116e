package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pimflow/internal/profcache"
)

// TestReportByteIdentical regenerates the committed experiments report
// the way cmd/pimflow-experiments writes it, first over a fresh profile
// store and then over a second store loaded from the first one's saved
// log: both must match the committed bytes. Profiles shared across
// harnesses (pim/, gpu/ and pipe/ entries alike) may change how fast the
// report is produced, never what it says.
func TestReportByteIdentical(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "experiments_report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	saved := sharedProfiles
	t.Cleanup(func() { sharedProfiles = saved })

	sharedProfiles = profcache.New()
	checkReport(t, "fresh store", string(want))

	path := filepath.Join(t.TempDir(), "profiles.json")
	if err := sharedProfiles.Save(path); err != nil {
		t.Fatal(err)
	}
	sharedProfiles = profcache.New()
	if n, err := sharedProfiles.Load(path); err != nil || n == 0 {
		t.Fatalf("Load = %d entries, %v", n, err)
	}
	checkReport(t, "loaded store", string(want))
}

func checkReport(t *testing.T, label, want string) {
	t.Helper()
	var b strings.Builder
	for _, e := range All() {
		res, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %s: %v", label, e.ID, err)
		}
		b.WriteString(res.Table())
		b.WriteByte('\n')
	}
	got := b.String()
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s: report line %d differs:\n got %q\nwant %q", label, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: report has %d lines, committed file %d", label, len(gl), len(wl))
}
