// Package serve turns PIMFlow's single-shot compile-and-run pipeline into
// one simulated serving machine operating in simulated time. The fleet
// package puts one or more of these machines behind its router and its
// HTTP API; a one-machine fleet is the single-machine server. A machine
// has four pieces:
//
//   - A model Registry that compiles each model once (search.Compile over
//     the shared profile store, gated by the static verification layer)
//     and caches the compiled plan plus its warm solo execution report
//     behind singleflight, with Load/Unload/List APIs.
//
//   - A typed live request path: InferRequest/InferResponse, a bounded
//     admission queue with a configurable backpressure policy (block,
//     reject, or shed-oldest — the shed choice prefers canceled
//     requests, then the request most likely to miss its deadline),
//     per-request wall-clock deadlines honored via context,
//     virtual-cycle deadlines enforced at placement, per-model latency
//     SLO classes (gold/silver/bronze ladders over the solo latency)
//     with soft-miss accounting, and graceful drain on shutdown. One
//     dispatcher goroutine coalesces same-model requests under each
//     model's max batch and wall-clock window and serves each batch it
//     flushes. Draining flushes open windows immediately, so shutdown
//     never waits out a batch window.
//
//   - A resource Scheduler that models the machine as lease-able GPU- and
//     PIM-channel groups and multiplexes concurrent requests over them in
//     virtual time: requests whose compiled plans use disjoint channel
//     groups overlap, contending requests queue behind earlier leases,
//     and a batch shares one lease.
//
//   - The virtual-time engine for pinned-arrival traffic: InferBatch
//     serves a pre-formed batch on the caller's goroutine, and
//     VirtualQueue drives it with deterministic admission, batching
//     (max batch plus a virtual window) and shedding for trace replay.
//
// A request-lifecycle ring (Config.RequestLog) and the obs metrics and
// trace record what each request went through; with Config.Certify,
// paged logs (CertLog) record the schedule certificate, which the SR-*
// check reads in place (CertificateView) and Certificate copies out.
//
// Time has two axes here. Compilation, queueing, and HTTP handling happen
// in wall-clock time; inference latency is accounted in simulated
// GPU-clock cycles on one shared virtual timeline, where each lease
// charges its model's solo schedule, executed once at load. A live
// request's virtual arrival stamp is the completion frontier of
// previously finished work as it stood when the request was admitted,
// so requests that wait together arrive together, unless the request
// pins its arrival (the fleet pins each hop of a graph route). Latency
// = completion − arrival measures queueing plus service in virtual
// cycles, independent of host speed.
package serve

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"pimflow/internal/search"
)

// Sentinel errors of the request path. The fleet's HTTP layer maps them
// onto status codes (400, 404, 409, 429, 503, 504).
var (
	// ErrBadSpec reports a Load whose spec can never compile or fit:
	// an unknown model, policy or SLO class, an invalid channel split, or
	// a slice larger than the machine.
	ErrBadSpec = errors.New("serve: bad model spec")
	// ErrNotLoaded reports an inference against a model name the registry
	// does not hold.
	ErrNotLoaded = errors.New("serve: model not loaded")
	// ErrAlreadyLoaded reports a Load of a name already serving.
	ErrAlreadyLoaded = errors.New("serve: model already loaded")
	// ErrQueueFull is returned under AdmitReject when the admission queue
	// is at capacity (the 429-style backpressure signal).
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrShed is returned to the oldest queued request when AdmitShedOldest
	// makes room for a newer arrival.
	ErrShed = errors.New("serve: request shed from admission queue")
	// ErrDraining is returned to requests arriving after shutdown began.
	ErrDraining = errors.New("serve: server draining")
	// ErrDeadlineViolation reports a request whose placed completion would
	// exceed its virtual-cycle deadline; the request is not executed.
	ErrDeadlineViolation = errors.New("serve: virtual deadline violation")
)

// ParsePolicy resolves a policy by its paper name ("Baseline", "Newton+",
// "Newton++", "PIMFlow-md", "PIMFlow-pl", "PIMFlow"), case-insensitively,
// with the short aliases "md" and "pl".
func ParsePolicy(s string) (search.Policy, error) {
	switch strings.ToLower(s) {
	case "md":
		return search.PolicyMDDP, nil
	case "pl":
		return search.PolicyPipeline, nil
	}
	for _, p := range search.Policies() {
		if strings.EqualFold(p.String(), s) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("serve: unknown policy %q", s)
}

// ParseLoads parses a -load flag into model specs, each starting from
// base (the command's policy, channel slice and SLO class). Entries are
// comma-separated, each "name=model" or a bare zoo model name serving
// under its own name, then semicolon-separated options: batch=N,
// window=D (a Go duration of at least 1ms) and slo=class.
// Names, models and numbers the registry would ignore (empty, or not
// positive) are errors. Any other option goes to extra, if non-nil, with
// the index of its entry's spec in the result and hasValue false for a
// bare word; extra reports whether the option is its own, so a command
// extends the grammar without copying it. Every error names its entry.
func ParseLoads(list string, base ModelSpec, extra func(i int, key, val string, hasValue bool) (bool, error)) ([]ModelSpec, error) {
	var specs []ModelSpec
	for _, entry := range strings.Split(list, ",") {
		if entry = strings.TrimSpace(entry); entry == "" {
			continue
		}
		parts := strings.Split(entry, ";")
		spec := base
		spec.Name, spec.Model = parts[0], parts[0]
		if name, model, ok := strings.Cut(parts[0], "="); ok {
			spec.Name, spec.Model = name, model
		}
		if spec.Name == "" || spec.Model == "" {
			return nil, fmt.Errorf("load entry %q: empty name or model", entry)
		}
		for _, opt := range parts[1:] {
			if opt = strings.TrimSpace(opt); opt == "" {
				continue
			}
			key, val, hasValue := strings.Cut(opt, "=")
			var err error
			known := true
			switch {
			case key == "batch" && hasValue:
				spec.MaxBatch, err = positive(strconv.Atoi(val))
			case key == "window" && hasValue:
				var d time.Duration
				if d, err = time.ParseDuration(val); err == nil && d < time.Millisecond {
					err = fmt.Errorf("%v is under 1ms", d)
				}
				spec.BatchWindowMillis = d.Milliseconds()
			case key == "slo" && hasValue:
				spec.SLO = val
			case extra != nil:
				known, err = extra(len(specs), key, val, hasValue)
			default:
				known = false
			}
			switch {
			case err != nil:
				return nil, fmt.Errorf("load entry %q: %s: %w", entry, key, err)
			case !known && !hasValue:
				return nil, fmt.Errorf("load entry %q: option %q is not key=value", entry, opt)
			case !known:
				return nil, fmt.Errorf("load entry %q: unknown option %q", entry, key)
			}
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

// positive passes a parsed number through, refusing one below 1.
func positive(v int, err error) (int, error) {
	if err == nil && v < 1 {
		err = fmt.Errorf("%d is not positive", v)
	}
	return v, err
}
