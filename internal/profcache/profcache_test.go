package profcache

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"pimflow/internal/codegen"
	"pimflow/internal/gpu"
	"pimflow/internal/pim"
)

// textKey is the key whose text is s; the store tests use keys no
// namespace parses, which the store keeps as their text.
func textKey(s string) Key { return parseKey(s) }

// put stores p under key through a miss.
func put(t *testing.T, s *Store, key Key, p Profile) {
	t.Helper()
	if _, out, err := s.DoObserved(key, func() (Profile, error) { return p, nil }); err != nil || out != OutcomeMiss {
		t.Fatalf("put %s: %v, %v", key, out, err)
	}
}

// get returns the profile stored under key, computing nothing.
func get(s *Store, key Key) (Profile, bool) {
	errAbsent := errors.New("absent")
	p, err := s.Do(key, func() (Profile, error) { return Profile{}, errAbsent })
	return p, err == nil
}

func TestDoCachesAndCounts(t *testing.T) {
	s := New()
	calls := 0
	compute := func() (Profile, error) {
		calls++
		return Profile{Cycles: 42}, nil
	}
	for i := 0; i < 3; i++ {
		p, err := s.Do(textKey("k"), compute)
		if err != nil || p.Cycles != 42 {
			t.Fatalf("Do #%d = %+v, %v", i, p, err)
		}
	}
	if calls != 1 {
		t.Errorf("compute ran %d times, want 1", calls)
	}
	st := s.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Shared != 0 || st.Entries != 1 {
		t.Errorf("stats %+v, want 2 hits / 1 miss / 0 shared / 1 entry", st)
	}
	if st.Saved() != 2 {
		t.Errorf("Saved() = %d, want 2", st.Saved())
	}
}

func TestDoDoesNotCacheErrors(t *testing.T) {
	s := New()
	boom := errors.New("boom")
	calls := 0
	if _, err := s.Do(textKey("k"), func() (Profile, error) { calls++; return Profile{}, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	p, err := s.Do(textKey("k"), func() (Profile, error) { calls++; return Profile{Cycles: 7}, nil })
	if err != nil || p.Cycles != 7 {
		t.Fatalf("retry = %+v, %v", p, err)
	}
	if calls != 2 {
		t.Errorf("compute ran %d times, want 2 (errors must not cache)", calls)
	}
	if n := s.Len(); n != 1 {
		t.Errorf("Len = %d, want 1", n)
	}
}

// TestSingleflight checks that concurrent callers of one missing key run
// the computation exactly once, with the waiters counted as shared.
func TestSingleflight(t *testing.T) {
	s := New()
	const callers = 16
	var calls atomic.Int64
	gate := make(chan struct{})
	started := make(chan struct{}, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			started <- struct{}{}
			p, err := s.Do(textKey("k"), func() (Profile, error) {
				calls.Add(1)
				<-gate // hold the flight open until all callers queued
				return Profile{Cycles: 99}, nil
			})
			if err != nil || p.Cycles != 99 {
				t.Errorf("Do = %+v, %v", p, err)
			}
		}()
	}
	for i := 0; i < callers; i++ {
		<-started
	}
	close(gate)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("compute ran %d times under contention, want 1", n)
	}
	st := s.Stats()
	// Callers that arrived after the flight completed count as hits; the
	// rest waited on it. Either way, exactly one miss.
	if st.Misses != 1 || st.Shared+st.Hits != callers-1 {
		t.Errorf("stats %+v, want 1 miss and %d shared+hits", st, callers-1)
	}
}

// TestConcurrentMixedKeys hammers the store from many goroutines across
// overlapping keys; run under -race this validates the locking.
func TestConcurrentMixedKeys(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := textKey(fmt.Sprintf("k%d", i%17))
				p, err := s.Do(key, func() (Profile, error) {
					return Profile{Cycles: int64(i % 17)}, nil
				})
				if err != nil || p.Cycles != int64(i%17) {
					t.Errorf("worker %d: Do(%s) = %+v, %v", w, key, p, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := s.Len(); n != 17 {
		t.Errorf("Len = %d, want 17", n)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "cache.json")
	s := New()
	put(t, s, textKey("a"), Profile{Cycles: 1, Counts: pim.Counts{Comps: 3, MACs: 12}})
	put(t, s, textKey("b"), Profile{Cycles: 2})
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	s2 := New()
	added, err := s2.Load(path)
	if err != nil || added != 2 {
		t.Fatalf("Load = %d, %v; want 2, nil", added, err)
	}
	p, ok := get(s2, textKey("a"))
	if !ok || p.Cycles != 1 || p.Counts.Comps != 3 || p.Counts.MACs != 12 {
		t.Errorf("entry a = %+v, %v", p, ok)
	}
	// Loading again adds nothing (merge keeps existing entries).
	added, err = s2.Load(path)
	if err != nil || added != 0 {
		t.Errorf("second Load = %d, %v; want 0, nil", added, err)
	}
	// Saving twice produces identical bytes (deterministic encoding).
	path2 := filepath.Join(dir, "cache2.json")
	if err := s.Save(path2); err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(path)
	b2, _ := os.ReadFile(path2)
	if string(b1) != string(b2) {
		t.Error("Save is not deterministic")
	}
}

func TestLoadMissingFileIsEmpty(t *testing.T) {
	s := New()
	added, err := s.Load(filepath.Join(t.TempDir(), "nope.json"))
	if err != nil || added != 0 {
		t.Errorf("Load(missing) = %d, %v; want 0, nil", added, err)
	}
}

func TestLoadRejectsVersionMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.json")
	if err := os.WriteFile(path, []byte(`{"version":999,"entries":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New().Load(path); err == nil {
		t.Error("Load accepted a mismatched format version")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New().Load(path); err == nil {
		t.Error("Load accepted garbage")
	}
}

func TestStatsSubAndString(t *testing.T) {
	a := Stats{Hits: 10, Misses: 4, Shared: 2, Entries: 9}
	b := Stats{Hits: 3, Misses: 1, Shared: 1, Entries: 5}
	d := a.Sub(b)
	if d.Hits != 7 || d.Misses != 3 || d.Shared != 1 || d.Entries != 9 {
		t.Errorf("Sub = %+v", d)
	}
	if d.String() == "" {
		t.Error("empty String()")
	}
}

// Key fingerprints must separate configurations that time differently and
// collapse ones that cannot differ (the kernel name).
func TestKeyFingerprints(t *testing.T) {
	w := codegen.Workload{M: 64, K: 256, N: 32, Segments: 3}
	cfg := pim.DefaultConfig()
	opts := codegen.DefaultOpts()
	base := NewPIMKeys(cfg, opts).Key(w)

	altCfg := cfg
	altCfg.Timing.TCCDL++
	if NewPIMKeys(altCfg, opts).Key(w) == base {
		t.Error("timing change did not change the PIM key")
	}
	altOpts := opts
	altOpts.StridedGWrite = !altOpts.StridedGWrite
	if NewPIMKeys(cfg, altOpts).Key(w) == base {
		t.Error("codegen option change did not change the PIM key")
	}
	gw := w
	gw.Groups = 4
	if NewPIMKeys(cfg, opts).Key(gw) == base {
		t.Error("group count did not change the PIM key")
	}

	g := gpu.DefaultConfig()
	k := gpu.Kernel{FLOPs: 1000, DRAMBytes: 500, ComputeEff: 0.5, MemEff: 0.5}
	gbase := NewGPUKeys(g).Key(k)
	altG := g.WithChannels(24)
	if NewGPUKeys(altG).Key(k) == gbase {
		t.Error("channel change did not change the GPU key")
	}
	if NewGPUKeys(g).Key(k) == NewPIMKeys(cfg, opts).Key(w) {
		t.Error("GPU and PIM key namespaces collide")
	}
}
