package runtime_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"pimflow/internal/models"
	"pimflow/internal/obs"
	"pimflow/internal/profcache"
	"pimflow/internal/runtime"
	"pimflow/internal/search"
)

// TestExecuteAtOffsetsZoo extends TestExecuteAtOffsetsTimeline to the
// five CNNs under PIMFlow and Baseline, with and without a profile
// store, at seeded offsets: ExecuteAt(g, cfg, t) equals ExecuteAt(g,
// cfg, 0) shifted by t, node for node. On the same grid the record of
// the offset-0 execution, applied at each t to one registry, writes the
// WriteText and WriteJSON bytes that executing at each t writes to
// another. The serving layer charges every batch from its model's solo
// report and record on exactly these two properties.
func TestExecuteAtOffsetsZoo(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, policy := range []search.Policy{search.PolicyPIMFlow, search.PolicyBaseline} {
		for _, name := range models.EvaluatedCNNs() {
			g, err := models.Build(name, models.Options{Light: true})
			if err != nil {
				t.Fatal(err)
			}
			opts := search.DefaultOptions(policy)
			compiled, _, err := search.Compile(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			store := profcache.New()
			for _, profiles := range []*profcache.Store{nil, store, store} {
				cfg := opts.RuntimeConfig()
				cfg.Profiles = profiles
				base, rec, err := runtime.ExecuteRecorded(compiled, cfg)
				if err != nil {
					t.Fatal(err)
				}
				executed, applied := obs.NewMetrics(), obs.NewMetrics()
				for _, off := range []int64{rng.Int63n(1 << 20), rng.Int63n(1 << 40), 1} {
					cfg.Metrics = executed
					got, err := runtime.ExecuteAt(compiled, cfg, off)
					if err != nil {
						t.Fatal(err)
					}
					if want := shifted(base, off); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s/%s at %d (store %t): report is not the offset-0 report shifted",
							name, policy, off, profiles != nil)
					}
					rec.Apply(applied, off)
					for _, write := range []func(*obs.Metrics, *bytes.Buffer) error{
						func(m *obs.Metrics, b *bytes.Buffer) error { return m.WriteText(b) },
						func(m *obs.Metrics, b *bytes.Buffer) error { return m.WriteJSON(b) },
					} {
						var e, a bytes.Buffer
						if err := write(executed, &e); err != nil {
							t.Fatal(err)
						}
						if err := write(applied, &a); err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(e.Bytes(), a.Bytes()) {
							t.Fatalf("%s/%s at %d (store %t): applied record writes\n%s\nexecution writes\n%s",
								name, policy, off, profiles != nil, a.Bytes(), e.Bytes())
						}
					}
				}
			}
		}
	}
}

// shifted returns a copy of rep placed at off instead of its own start.
func shifted(rep *runtime.Report, off int64) *runtime.Report {
	d := off - rep.StartCycle
	out := *rep
	out.StartCycle += d
	out.TotalCycles += d
	out.Nodes = append([]runtime.NodeReport(nil), rep.Nodes...)
	for i := range out.Nodes {
		out.Nodes[i].Start += d
		out.Nodes[i].End += d
	}
	return &out
}
