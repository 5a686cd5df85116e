// SLO targets and shed decisions are defined on the virtual timeline
// only (time.Duration appears solely as a config unit).
//
//pimflow:virtual-time

package serve

import (
	"fmt"
	"time"
)

// SLOClass is a named latency-SLO tier. A model is assigned a class at
// load time; the class's virtual-cycle completion target (relative to the
// request's virtual arrival) drives two things: the admission queue's
// shed choice under AdmitShedOldest (the request most likely to miss its
// deadline is shed first, see pickShedVictim), and per-class SLO-miss
// accounting in the metrics registry. The target is soft — a miss is
// counted, not failed; hard failures stay on InferRequest.DeadlineCycles.
type SLOClass struct {
	Name string `json:"name"`
	// TargetCycles is an absolute completion target in virtual cycles.
	// When zero, the target is derived from TargetFactor.
	TargetCycles int64 `json:"targetCycles,omitempty"`
	// TargetFactor derives the target as factor x the model's warm solo
	// latency, so one class scales across models of different sizes.
	TargetFactor float64 `json:"targetFactor,omitempty"`
}

// Target resolves the class's completion target for a model with the
// given warm solo latency. Zero means best-effort: no target.
func (c SLOClass) Target(soloCycles int64) int64 {
	if c.TargetCycles > 0 {
		return c.TargetCycles
	}
	if c.TargetFactor > 0 {
		return int64(c.TargetFactor * float64(soloCycles))
	}
	return 0
}

// DefaultSLOClasses is the built-in tier ladder: targets are multiples of
// a model's solo latency, so "gold" means "finish within 2x solo even
// under load". The empty name resolves to best-effort.
func DefaultSLOClasses() []SLOClass {
	return []SLOClass{
		{Name: "gold", TargetFactor: 2},
		{Name: "silver", TargetFactor: 6},
		{Name: "bronze", TargetFactor: 20},
		{Name: "best-effort"},
	}
}

// findSLO resolves a class name against the configured ladder. The empty
// name is best-effort (zero class).
func findSLO(classes []SLOClass, name string) (SLOClass, error) {
	if name == "" {
		return SLOClass{Name: "best-effort"}, nil
	}
	for _, c := range classes {
		if c.Name == name {
			return c, nil
		}
	}
	return SLOClass{}, fmt.Errorf("serve: unknown SLO class %q", name)
}

// BatchPolicy is one model's resolved continuous-batching policy.
type BatchPolicy struct {
	// MaxBatch is the largest coalesced batch (1: no batching).
	MaxBatch int `json:"maxBatch"`
	// Window is the wall-clock coalescing window: after the first request
	// opens a batch, the dispatcher holds it open this long for same-model
	// arrivals (kserve-style max-latency window). Zero coalesces only
	// requests already queued.
	Window time.Duration `json:"window"`
	// WindowCycles is the virtual-time coalescing window a VirtualQueue
	// applies to pinned-arrival traffic (trace replay): a batch flushes
	// when a newer arrival's stamp passes its head arrival plus
	// WindowCycles, so batch formation is deterministic in simulated time.
	// The live dispatcher stamps arrivals from the frontier and never
	// reads it.
	WindowCycles int64 `json:"windowCycles"`
}

// shedCandidate describes one queued request for shed-victim selection,
// in queue (oldest-first) order.
type shedCandidate struct {
	// Canceled marks a request whose context already ended; it is dead
	// weight and always the preferred victim.
	Canceled bool
	// Deadline is the effective virtual-cycle completion deadline (the
	// tighter of the request's explicit deadline and its model's SLO
	// target); zero is best-effort.
	Deadline int64
	// Service is the estimated service time in cycles (the model's warm
	// solo latency).
	Service int64
}

// pickShedVictim chooses which of the candidates a full queue should shed,
// given oldest-first order. Selection order:
//
//  1. A canceled request (dead weight in the queue).
//  2. The SLO-bearing request most likely to miss its virtual deadline:
//     predicted completion is its queue backlog (sum of service estimates
//     ahead of it) plus its own service; the candidate with the largest
//     positive predicted overshoot is shed — its work would be wasted
//     anyway, and dropping it helps everyone behind it.
//  3. The oldest best-effort request (no deadline to harm).
//  4. The oldest request (the classic shed-oldest fallback).
//
// The caller may append the incoming request as the final candidate; if
// it is selected, admission itself should fail instead of displacing
// queued work.
func pickShedVictim(cands []shedCandidate) int {
	for i := range cands {
		if cands[i].Canceled {
			return i
		}
	}
	var backlog int64
	victim, worst := -1, int64(0)
	for i := range cands {
		predicted := backlog + cands[i].Service
		if d := cands[i].Deadline; d > 0 {
			if m := predicted - d; m > worst {
				victim, worst = i, m
			}
		}
		backlog += cands[i].Service
	}
	if victim >= 0 {
		return victim
	}
	for i := range cands {
		if cands[i].Deadline == 0 {
			return i
		}
	}
	return 0
}
