package codegen_test

import (
	"bytes"
	"regexp"
	"slices"
	"strconv"
	"testing"

	"pimflow/internal/codegen"
	"pimflow/internal/obs"
	"pimflow/internal/pim"
)

// classWorkloads are the shapes the channel-class tests cover beyond the
// sweep and the paper models: the largest cold-pass workloads, whose
// contiguous windows start at 16 offsets (M 308) down to one (M 3136),
// and an M grid at K 4608, N 64 that, in the default configuration, puts
// the partial last vector group in one channel (M 63), across two (M 38)
// and across eight (M 5).
func classWorkloads() []codegen.Workload {
	ws := []codegen.Workload{
		{M: 308, K: 4608, N: 512, Segments: 3},
		{M: 168, K: 4608, N: 512, Segments: 3},
		{M: 196, K: 4608, N: 512, Segments: 3},
		{M: 2464, K: 32, N: 16, Segments: 1},
		{M: 3136, K: 2304, N: 256, Segments: 3},
	}
	for m := 1; m <= 64; m++ {
		ws = append(ws, codegen.Workload{M: m, K: 4608, N: 64, Segments: 1})
	}
	return ws
}

// TestChannelClassesMatchReference holds TimeWorkload's channel classes
// to the per-command reference emitters: every channel's stream equals
// the stream of the first channel of its class, for the sweep, every
// distinct PIM workload of the five paper models and classWorkloads,
// under both configurations and every granularity and GWRITE option.
func TestChannelClassesMatchReference(t *testing.T) {
	workloads := append(append(paperWorkloads(t), sweepWorkloads...), classWorkloads()...)
	channels, classes := 0, 0
	for cfgName, cfg := range sweepConfigs {
		for optName, o := range sweepOpts {
			for _, w := range workloads {
				ref, err := codegen.NewReferenceEmitter(w, cfg, o)
				if err != nil {
					t.Fatal(err)
				}
				firsts := map[int][]pim.Command{}
				var cmds []pim.Command
				for _, ch := range ref.Channels() {
					cmds, _ = ref.Channel(ch, cmds[:0], nil)
					channels++
					c := ref.Class(ch)
					if c == ch {
						firsts[ch] = slices.Clone(cmds)
						classes++
						continue
					}
					first, ok := firsts[c]
					if !ok {
						t.Fatalf("%s/%s/%+v: channel %d's class starts at %d, not an earlier first channel", cfgName, optName, w, ch, c)
					}
					if !slices.Equal(cmds, first) {
						t.Fatalf("%s/%s/%+v: channel %d's stream differs from channel %d's, the first of its class", cfgName, optName, w, ch, c)
					}
				}
			}
		}
	}
	t.Logf("%d channels in %d classes", channels, classes)
	if classes == channels {
		t.Error("no class holds two channels")
	}
}

// TestTimeWorkloadWalksEachClassOnce reads the walks TimeWorkload's
// debug log reports: one per class, so M 3136, K 2304, N 256 times its
// 16 channels with one walk.
func TestTimeWorkloadWalksEachClassOnce(t *testing.T) {
	var log bytes.Buffer
	obs.SetVerbosityWriter(2, &log)
	t.Cleanup(func() { obs.SetLogger(nil) })
	walksOf := regexp.MustCompile(`channels=(\d+) walks=(\d+)`)
	for optName, o := range sweepOpts {
		for _, w := range append(sweepWorkloads, classWorkloads()...) {
			cfg := pim.DefaultConfig()
			ref, err := codegen.NewReferenceEmitter(w, cfg, o)
			if err != nil {
				t.Fatal(err)
			}
			classes := 0
			for _, ch := range ref.Channels() {
				if ref.Class(ch) == ch {
					classes++
				}
			}
			log.Reset()
			if _, err := codegen.TimeWorkload(w, cfg, o); err != nil {
				t.Fatal(err)
			}
			m := walksOf.FindStringSubmatch(log.String())
			if m == nil {
				t.Fatalf("%s/%+v: no walk count in the debug log %q", optName, w, log.String())
			}
			walks, _ := strconv.Atoi(m[2])
			if walks != classes {
				t.Errorf("%s/%+v: %d walks, %d classes", optName, w, walks, classes)
			}
			if w == (codegen.Workload{M: 3136, K: 2304, N: 256, Segments: 3}) && optName == "default" &&
				(m[1] != "16" || walks != 1) {
				t.Errorf("%+v: %s channels in %d walks, want 16 in 1", w, m[1], walks)
			}
		}
	}
}
