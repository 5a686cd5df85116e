package load

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"pimflow/internal/serve"
)

// refPending is one admitted, not-yet-flushed request of
// referenceReplay's virtual queue.
type refPending struct {
	cycle    int64
	service  int64
	deadline int64
	shed     bool
}

// refModel is one scenario model of referenceReplay: its shed and
// batching policy and its open batch.
type refModel struct {
	name       string
	service    int64
	deadline   int64
	maxBatch   int
	window     int64
	open       bool
	items      []refPending
	flushCycle int64
}

// refPickShedVictim is the shed-oldest victim rule without canceled
// candidates (a replay has none): the SLO-bearing candidate with the
// largest positive predicted overshoot, else the oldest best-effort
// candidate, else the oldest.
func refPickShedVictim(ps []*refPending) int {
	var backlog int64
	victim, worst := -1, int64(0)
	for i, p := range ps {
		if p.deadline > 0 && backlog+p.service-p.deadline > worst {
			victim, worst = i, backlog+p.service-p.deadline
		}
		backlog += p.service
	}
	if victim >= 0 {
		return victim
	}
	for i, p := range ps {
		if p.deadline == 0 {
			return i
		}
	}
	return 0
}

// referenceReplay is load.Replay's own event loop from before admission,
// batching and shedding moved into serve.VirtualQueue, kept as the
// oracle of TestReplayMatchesReference. Occupancy is open requests plus
// served requests whose completion cycles are still ahead, a plain slice
// filtered on every arrival.
func referenceReplay(srv *serve.Server, sc Scenario, reqs []Request) (*Report, error) {
	sc = sc.withDefaults()
	shed := sc.Admission == "shed-oldest" || sc.Admission == "shed"
	names := make([]string, 0, len(sc.Models))
	for _, m := range sc.Models {
		names = append(names, m.Name)
	}
	slices.Sort(names)
	names = slices.Compact(names)
	models := make([]refModel, len(names))
	index := map[string]int{}
	for i, name := range names {
		lm, err := srv.Registry().Get(name)
		if err != nil {
			return nil, err
		}
		index[name] = i
		models[i] = refModel{name: name, service: lm.Solo.DurationCycles(), deadline: lm.SLOTarget,
			maxBatch: lm.Batch.MaxBatch, window: lm.Batch.WindowCycles}
	}

	rep := &Report{Scenario: sc.Name, Requests: len(reqs), Classes: map[string]ClassStats{}}
	started := time.Now()
	var (
		inFlight []int64
		queued   int
		stats    = NewCollector(sc, len(reqs))
	)
	flush := func(m *refModel) error {
		m.open = false
		var batch []serve.InferRequest
		for _, p := range m.items {
			if !p.shed {
				batch = append(batch, serve.InferRequest{Model: m.name, ArrivalCycle: p.cycle})
			}
		}
		m.items = nil
		queued -= len(batch)
		if len(batch) == 0 {
			return nil
		}
		outs, err := srv.InferBatch(context.Background(), batch, serve.BatchOptions{})
		if err != nil {
			return err
		}
		for _, o := range outs {
			switch {
			case o.Err == nil:
				rep.Served++
				stats.Observe(o.Resp)
				cs := rep.Classes[o.Resp.SLOClass]
				cs.Served++
				if o.Resp.SLOMiss {
					cs.SLOMiss++
					rep.SLOMiss++
				}
				rep.Classes[o.Resp.SLOClass] = cs
				inFlight = append(inFlight, o.Resp.EndCycle)
			case errors.Is(o.Err, serve.ErrDeadlineViolation):
				rep.Violated++
			default:
				rep.Errors++
			}
		}
		return nil
	}
	// Overdue windows flush in (flushCycle, model) order.
	flushDue := func(now int64) error {
		for {
			var due *refModel
			for i := range models {
				m := &models[i]
				if m.open && m.flushCycle > 0 && now > m.flushCycle &&
					(due == nil || m.flushCycle < due.flushCycle) {
					due = m
				}
			}
			if due == nil {
				return nil
			}
			if err := flush(due); err != nil {
				return err
			}
		}
	}

	for _, r := range reqs {
		k, ok := index[r.Model]
		if !ok {
			return nil, fmt.Errorf("load: trace names unloaded model %q", r.Model)
		}
		if err := flushDue(r.Cycle); err != nil {
			return nil, err
		}
		inFlight = slices.DeleteFunc(inFlight, func(end int64) bool { return end <= r.Cycle })
		m := &models[k]
		p := refPending{cycle: r.Cycle, service: m.service, deadline: m.deadline}
		if len(inFlight)+queued >= sc.QueueDepth {
			if !shed {
				rep.Rejected++
				continue
			}
			// Open requests oldest first (models by name, stable sort),
			// then the arrival.
			var ps []*refPending
			for i := range models {
				if models[i].open {
					for j := range models[i].items {
						if q := &models[i].items[j]; !q.shed {
							ps = append(ps, q)
						}
					}
				}
			}
			slices.SortStableFunc(ps, func(a, b *refPending) int { return cmp.Compare(a.cycle, b.cycle) })
			v := refPickShedVictim(append(ps, &p))
			rep.Shed++
			if v == len(ps) {
				continue
			}
			ps[v].shed = true
			queued--
		}
		if !m.open {
			m.open = true
			m.flushCycle = 0
			if m.maxBatch > 1 && m.window > 0 {
				m.flushCycle = r.Cycle + m.window
			}
		}
		m.items = append(m.items, p)
		queued++
		full := 0
		for _, q := range m.items {
			if !q.shed {
				full++
			}
		}
		if full >= m.maxBatch || m.flushCycle == 0 {
			if err := flush(m); err != nil {
				return nil, err
			}
		}
	}
	// Trailing batches flush in (head cycle, model) order.
	for {
		var next *refModel
		for i := range models {
			if m := &models[i]; m.open && (next == nil || m.items[0].cycle < next.items[0].cycle) {
				next = m
			}
		}
		if next == nil {
			break
		}
		if err := flush(next); err != nil {
			return nil, err
		}
	}

	rep.WallSeconds = time.Since(started).Seconds()
	stats.Finish(rep)
	if err := certify(srv, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// TestReplayMatchesReference replays seeded toy scenarios through
// Replay and referenceReplay on twin servers and requires identical
// reports and schedule certificates: three arrival processes, both
// open-loop admission policies, windowed, windowless and mixed models,
// and traces with arrivals coarsened onto a grid so that requests for
// different models arrive on the same cycle.
func TestReplayMatchesReference(t *testing.T) {
	seed := int64(0)
	for _, process := range []string{"poisson", "diurnal", "bursty"} {
		for _, admission := range []string{"reject", "shed-oldest"} {
			for _, windows := range []string{"windowed", "windowless", "mixed"} {
				for _, grid := range []int64{0, 10_000} {
					seed++
					sc := toyScenario(seed, 1500, process)
					sc.Admission = admission
					switch windows {
					case "windowless":
						sc.Models[0].WindowCycles, sc.Models[1].WindowCycles = 0, 0
					case "mixed":
						sc.Models[1].WindowCycles = 0
					}
					reqs, err := Generate(sc)
					if err != nil {
						t.Fatal(err)
					}
					if grid > 0 {
						for i := range reqs {
							reqs[i].Cycle = (reqs[i].Cycle/grid + 1) * grid
						}
					}
					name := fmt.Sprintf("%s/%s/%s/grid%d", process, admission, windows, grid)
					srv, ref := newScenarioServer(t, sc), newScenarioServer(t, sc)
					got, err := Replay(srv, sc, reqs)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					want, err := referenceReplay(ref, sc, reqs)
					if err != nil {
						t.Fatalf("%s: reference: %v", name, err)
					}
					if !reflect.DeepEqual(stripWall(got), stripWall(want)) {
						t.Fatalf("%s: report differs from the reference\n got %+v\nwant %+v", name, stripWall(got), stripWall(want))
					}
					if !reflect.DeepEqual(srv.Certificate(), ref.Certificate()) {
						t.Fatalf("%s: schedule certificate differs from the reference", name)
					}
				}
			}
		}
	}
}
