package serve

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

// newVirtualServer starts a server with the given models loaded.
func newVirtualServer(t *testing.T, specs ...ModelSpec) *Server {
	t.Helper()
	s, err := NewServer(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	for _, spec := range specs {
		if _, err := s.Registry().Load(spec); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func virtualSpec(name, slo string, maxBatch int, window int64) ModelSpec {
	spec := toySpec(name)
	spec.SLO, spec.MaxBatch, spec.BatchWindowCycles = slo, maxBatch, window
	return spec
}

// Every payload a VirtualQueue admits reaches done exactly once, with a
// response or the refusal its policy names, and occupancy never exceeds
// the depth. Seeded traces mix three models (windowed gold and bronze
// classes, a windowless best-effort one) at shallow depths, with many
// arrivals sharing a cycle.
func TestVirtualQueueConservation(t *testing.T) {
	s := newVirtualServer(t,
		virtualSpec("v-gold", "gold", 4, 30_000),
		virtualSpec("v-bronze", "bronze", 8, 50_000),
		virtualSpec("v-free", "", 8, 0))
	models := []string{"v-gold", "v-bronze", "v-free"}
	now := int64(0)
	for _, policy := range []AdmissionPolicy{AdmitReject, AdmitShedOldest} {
		for seed := int64(1); seed <= 10; seed++ {
			rng := rand.New(rand.NewSource(seed))
			const n = 400
			depth := 2 + rng.Intn(12)
			seen := make([]int, n)
			var served, refused int
			q, err := NewVirtualQueue(s, depth, policy, BatchOptions{}, func(i int, resp *InferResponse, err error) {
				seen[i]++
				switch {
				case err == nil && resp != nil:
					served++
				case policy == AdmitReject && errors.Is(err, ErrQueueFull),
					policy == AdmitShedOldest && errors.Is(err, ErrShed):
					refused++
				default:
					t.Errorf("%v seed %d: payload %d outcome %v, %v", policy, seed, i, resp, err)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				now += int64(rng.Intn(3) * rng.Intn(6_000))
				if err := q.Admit(now, models[rng.Intn(len(models))], i); err != nil {
					t.Fatal(err)
				}
				if occ := q.Occupancy(now); occ > depth {
					t.Fatalf("%v seed %d: occupancy %d over depth %d", policy, seed, occ, depth)
				}
			}
			for _, open := q.Head(); open; _, open = q.Head() {
				if err := q.FlushHead(); err != nil {
					t.Fatal(err)
				}
			}
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("%v seed %d: payload %d reached done %d times", policy, seed, i, c)
				}
			}
			if served == 0 || refused == 0 {
				t.Fatalf("%v seed %d: served %d, refused %d; the trace must do both", policy, seed, served, refused)
			}
			now += 1 << 40 // past every completion: the next queue starts on an idle server
			if occ := q.Occupancy(now); occ != 0 {
				t.Fatalf("%v seed %d: drained queue has occupancy %d", policy, seed, occ)
			}
		}
	}
}

// Errors that are not a payload's outcome come back from the call: an
// unsupported policy from the constructor, an unloaded model from Admit
// (with no callback).
func TestVirtualQueueErrors(t *testing.T) {
	s := newVirtualServer(t, virtualSpec("v-gold", "gold", 4, 30_000))
	if _, err := NewVirtualQueue(s, 4, AdmitBlock, BatchOptions{}, func(int, *InferResponse, error) {}); err == nil {
		t.Fatal("a blocking virtual queue was accepted")
	}
	q, err := NewVirtualQueue(s, 4, AdmitReject, BatchOptions{}, func(i int, _ *InferResponse, _ error) {
		t.Errorf("payload %d reached done", i)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Admit(100, "ghost", 1); !errors.Is(err, ErrNotLoaded) {
		t.Fatalf("admit for an unloaded model: %v", err)
	}
}

// vprobe is a payload shaped like the fleet replay's hop: pointers and a
// string, so a copy that escaped would cost an allocation.
type vprobe struct {
	exec *int
	node string
	at   int64
}

// An admission that neither flushes nor is refused, and a refused one,
// allocate nothing once the queue's buffers have grown: payloads travel
// by value into queue-owned storage and out to done.
func TestVirtualQueueAdmitAllocFree(t *testing.T) {
	s := newVirtualServer(t,
		virtualSpec("v-wide", "", 4096, 1<<40),
		virtualSpec("v-gold", "gold", 4096, 1<<40))
	var outcomes int
	done := func(p vprobe, _ *InferResponse, _ error) { outcomes++ }
	exec := new(int)
	now := int64(0)
	admit := func(q *VirtualQueue[vprobe], model string) {
		now++
		if err := q.Admit(now, model, vprobe{exec: exec, node: "root", at: now}); err != nil {
			t.Fatal(err)
		}
	}

	open, err := NewVirtualQueue(s, 1<<20, AdmitReject, BatchOptions{}, done)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		admit(open, "v-wide")
	}
	if err := open.FlushHead(); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(200, func() { admit(open, "v-wide") }); a != 0 {
		t.Errorf("admission into an open batch allocates %v objects", a)
	}

	for _, policy := range []AdmissionPolicy{AdmitReject, AdmitShedOldest} {
		full, err := NewVirtualQueue(s, 2, policy, BatchOptions{}, done)
		if err != nil {
			t.Fatal(err)
		}
		admit(full, "v-gold")
		admit(full, "v-gold")
		before := outcomes
		// Under shed-oldest the gold arrival behind two gold members is
		// the likeliest to miss its target, so it is the one shed.
		if a := testing.AllocsPerRun(200, func() { admit(full, "v-gold") }); a != 0 {
			t.Errorf("%v: a refused admission allocates %v objects", policy, a)
		}
		if outcomes-before != 201 {
			t.Errorf("%v: %d of 201 arrivals refused", policy, outcomes-before)
		}
	}
}

// A batch that fills and flushes allocates nothing once the queue's
// buffers have grown, with certificates recorded or not: InferBatch's
// items, member pointers, outcomes and responses are queue-owned storage
// reused from batch to batch (fresh slices cost four objects per batch),
// the certificate's paged logs never move a row, and the gold members
// that miss their SLO count through the class's handle, not through a
// labeled key built per miss.
func TestVirtualQueueFlushAllocFree(t *testing.T) {
	for _, certify := range []bool{false, true} {
		s, err := NewServer(Config{Certify: certify})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Shutdown(context.Background()) })
		if _, err := s.Registry().Load(virtualSpec("v-eight", "gold", 8, 1<<40)); err != nil {
			t.Fatal(err)
		}
		var served, members int
		q, err := NewVirtualQueue(s, 64, AdmitReject, BatchOptions{}, func(_ vprobe, resp *InferResponse, err error) {
			if err == nil && resp.BatchSize == 8 {
				served++
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		exec := new(int)
		now := int64(0)
		batch := func() {
			// Batches sit far apart, so the previous one has completed
			// and the eighth arrival flushes a full batch.
			now += 1 << 30
			for i := int64(0); i < 8; i++ {
				members++
				if err := q.Admit(now+i, "v-eight", vprobe{exec: exec, node: "root", at: now + i}); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < 50; i++ {
			batch()
		}
		if a := testing.AllocsPerRun(100, batch); a != 0 {
			t.Errorf("certify=%v: a flushed batch of 8 allocates %v objects", certify, a)
		}
		if served != members {
			t.Fatalf("certify=%v: %d of %d members served in full batches", certify, served, members)
		}
		if cert := s.Certificate(); certify && len(cert.Requests) != members {
			t.Fatalf("certificate holds %d of %d requests", len(cert.Requests), members)
		}
	}
}
