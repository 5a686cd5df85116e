// Package profcache implements the cross-run profile store backing the
// execution-mode search (paper §4.2.2): Algorithm 1 stores hardware
// measurements in a metadata log so profiles are reused across
// compilations. The store is content-keyed — every entry's key embeds the
// full workload description and the device-configuration fingerprint that
// produced it — so results are only ever shared between identical
// configurations and a stale file can never corrupt a run: mismatched
// entries simply never hit.
//
// Keys are typed values (Key) in memory, so a recall is one map lookup
// with nothing formatted; they become text only in files.
//
// The store is safe for concurrent use and deduplicates in-flight work
// with singleflight semantics: when several goroutines request the same
// missing key, one runs the simulation and the others wait for its result
// instead of re-simulating. Errors are returned to all waiters but never
// cached; a later call recomputes.
//
// JSON persistence (Save/Load) mirrors the paper artifact's metadata log
// files: a compilation can warm its store from a previous run's file and
// write the merged profiles back. Invalidation is implicit in the key
// scheme; bumping FormatVersion discards whole files written by older,
// incompatible key schemes.
package profcache

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"pimflow/internal/pim"
)

// FormatVersion is the persistence format version. Files written with a
// different version are rejected by Load, which is how key-scheme changes
// invalidate old logs wholesale. Version 2 added PerChannelBusy, which
// the observability layer's per-channel utilization metrics require, so
// version-1 files (which would load with the field silently zero) are
// discarded rather than merged.
//
// Keys fingerprint configurations, not code, so a change to what a key
// measures must bump the version too: the PIM simulator or codegen for
// pim/ entries, the roofline for gpu/ entries, and, because a pipe/ entry
// caches a whole schedule, any change to runtime.Execute's cost model.
// Adding a namespace needs no bump: older code never queries it.
const FormatVersion = 2

// Profile is one cached measurement: the simulated cycle count in the
// measured device's own clock domain, plus — for PIM entries — the
// command counts the energy model consumes and the per-channel
// MAC-pipeline busy cycles the observability metrics report. GPU entries
// carry counts of zero.
type Profile struct {
	Cycles         int64      `json:"cycles"`
	Counts         pim.Counts `json:"counts,omitempty"`
	PerChannelBusy []int64    `json:"perChannelBusy,omitempty"`
}

// Outcome classifies how a DoObserved lookup was answered.
type Outcome int

const (
	// OutcomeMiss means the compute function ran.
	OutcomeMiss Outcome = iota
	// OutcomeHit means a completed entry answered the lookup.
	OutcomeHit
	// OutcomeShared means the caller waited on another caller's in-flight
	// computation of the same key.
	OutcomeShared
)

func (o Outcome) String() string {
	switch o {
	case OutcomeMiss:
		return "miss"
	case OutcomeHit:
		return "hit"
	case OutcomeShared:
		return "shared"
	default:
		return "unknown"
	}
}

// Stats is a snapshot of the store's counters.
type Stats struct {
	// Hits counts lookups answered from a completed entry.
	Hits int64
	// Misses counts lookups that ran the compute function.
	Misses int64
	// Shared counts lookups that waited on another caller's in-flight
	// computation of the same key (singleflight deduplication).
	Shared int64
	// Pruned counts probes that were never issued because an analytic
	// lower bound proved them non-improving. The store itself never
	// sees a pruned probe — the field is populated by the search, which
	// owns the bound — but it lives here so one Stats value describes
	// everything a compilation did (and didn't) simulate.
	Pruned int64
	// Entries is the number of stored profiles at snapshot time.
	Entries int
}

// Saved returns the number of simulations the store avoided.
func (s Stats) Saved() int64 { return s.Hits + s.Shared }

// Sub returns the counter deltas since an earlier snapshot (Entries stays
// absolute).
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Hits:    s.Hits - prev.Hits,
		Misses:  s.Misses - prev.Misses,
		Shared:  s.Shared - prev.Shared,
		Pruned:  s.Pruned - prev.Pruned,
		Entries: s.Entries,
	}
}

func (s Stats) String() string {
	out := fmt.Sprintf("%d hits, %d misses, %d shared (%d simulations saved, %d entries)",
		s.Hits, s.Misses, s.Shared, s.Saved(), s.Entries)
	if s.Pruned > 0 {
		out += fmt.Sprintf(", %d pruned", s.Pruned)
	}
	return out
}

// flight is one in-progress computation other callers can wait on.
type flight struct {
	done chan struct{}
	val  Profile
	err  error
}

// Store is a content-keyed, concurrency-safe profile store with
// singleflight deduplication.
type Store struct {
	mu       sync.Mutex
	entries  map[Key]Profile
	inflight map[Key]*flight
	hits     int64
	misses   int64
	shared   int64
}

// New returns an empty store.
func New() *Store {
	return &Store{
		entries:  map[Key]Profile{},
		inflight: map[Key]*flight{},
	}
}

// Do returns the profile for key, computing it at most once: a cached
// entry is returned immediately; a key being computed by another caller is
// waited on; otherwise compute runs and its result is stored. Errors
// propagate to every waiter of the attempt and are not cached.
func (s *Store) Do(key Key, compute func() (Profile, error)) (Profile, error) {
	p, _, err := s.DoObserved(key, compute)
	return p, err
}

// DoObserved is Do plus the lookup's outcome (hit, miss, or shared), so
// instrumentation can annotate individual probes without diffing counter
// snapshots around concurrent calls.
func (s *Store) DoObserved(key Key, compute func() (Profile, error)) (Profile, Outcome, error) {
	s.mu.Lock()
	if p, ok := s.entries[key]; ok {
		s.hits++
		s.mu.Unlock()
		return p, OutcomeHit, nil
	}
	if f, ok := s.inflight[key]; ok {
		s.shared++
		s.mu.Unlock()
		<-f.done
		return f.val, OutcomeShared, f.err
	}
	f := &flight{done: make(chan struct{})}
	s.inflight[key] = f
	s.misses++
	s.mu.Unlock()

	f.val, f.err = compute()

	s.mu.Lock()
	delete(s.inflight, key)
	if f.err == nil {
		s.entries[key] = f.val
	}
	s.mu.Unlock()
	close(f.done)
	return f.val, OutcomeMiss, f.err
}

// Lookup returns the completed entry for key and never computes: a hit
// counts as DoObserved's does, while an absent key, or one another caller
// is still computing, returns false and counts nothing, so a caller that
// then asks DoObserved counts that lookup once.
func (s *Store) Lookup(key Key) (Profile, bool) {
	s.mu.Lock()
	p, ok := s.entries[key]
	if ok {
		s.hits++
	}
	s.mu.Unlock()
	return p, ok
}

// Len returns the number of stored entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{Hits: s.hits, Misses: s.misses, Shared: s.shared, Entries: len(s.entries)}
}

// file is the JSON persistence schema.
type file struct {
	Version int                `json:"version"`
	Entries map[string]Profile `json:"entries"`
}

// Save writes the store's entries to path as JSON, atomically (temp file +
// rename). Each key is written as its text (Key.String), and entries are
// emitted in sorted text order so identical stores produce identical
// files. Distinct keys have distinct texts, so no entry is lost.
func (s *Store) Save(path string) error {
	s.mu.Lock()
	out := file{Version: FormatVersion, Entries: make(map[string]Profile, len(s.entries))}
	for k, v := range s.entries {
		out.Entries[k.String()] = v
	}
	s.mu.Unlock()
	// encoding/json writes map keys in sorted order, so identical stores
	// produce identical files.
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return fmt.Errorf("profcache: encode: %w", err)
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("profcache: %w", err)
		}
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("profcache: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("profcache: %w", err)
	}
	return nil
}

// Load merges entries from a file written by Save into the store,
// returning how many entries were added. A missing file is not an error
// (zero entries load); a file with a different format version is. Each
// text key is parsed back into the Key that renders it; one that does not
// parse, or would render differently, is kept verbatim, never hits, and
// saves back unchanged.
func (s *Store) Load(path string) (int, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("profcache: %w", err)
	}
	var f file
	if err := json.Unmarshal(data, &f); err != nil {
		return 0, fmt.Errorf("profcache: decode %s: %w", path, err)
	}
	if f.Version != FormatVersion {
		return 0, fmt.Errorf("profcache: %s has format version %d, want %d", path, f.Version, FormatVersion)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	added := 0
	for text, v := range f.Entries {
		k := parseKey(text)
		if _, ok := s.entries[k]; !ok {
			s.entries[k] = v
			added++
		}
	}
	return added, nil
}
