package verify_test

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"pimflow/internal/verify"
)

// FuzzSchedule is the SR-* checkers' differential target: every input
// decodes to a schedule certificate (out-of-order starts, equal cycles,
// zero and negative demands, duplicate and unknown IDs all come out of
// small numbers), and Schedule, and the check of the certificate viewed
// in pages of one to seven rows, must return exactly ReferenceSchedule's
// diagnostics, in order and text. The seeds are encoded forgeries of a
// bursty replay and of fleet-graph machine schedules, whose leases step
// back in start order, and a forgery whose references straddle pages.
func FuzzSchedule(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	bursty := burstyCert(f, 120)
	f.Add(encodeSchedule(bursty))
	for i := 0; i < 24; i++ {
		f.Add(encodeSchedule(forgeSchedule(rng, bursty)))
	}
	fc := graphFleetCert(f, 400)
	for _, m := range fc.Machines {
		if s := fc.Schedules[m.Name]; len(s.Leases) >= 4 && len(s.Frontiers) >= 2 {
			f.Add(encodeSchedule(s))
			for i := 0; i < 12; i++ {
				f.Add(encodeSchedule(forgeSchedule(rng, s)))
			}
		}
	}
	// Three leases granted at one cycle in an order the sweep must
	// re-sort, one starting below another's start, a zero and a negative
	// demand, and a duplicate ID.
	f.Add(encodeSchedule(verify.ScheduleCertificate{GPUChannels: 2, PIMChannels: 2, Leases: []verify.ScheduleLease{
		{ID: 1, Model: "a", Start: 10, End: 20, GPU: 2, PIM: 0, Batch: 1},
		{ID: 2, Model: "a", Start: 10, End: 30, GPU: 0, PIM: 2, Batch: 1},
		{ID: 3, Model: "b", Start: 5, End: 10, GPU: 1, PIM: 1, Batch: 1},
		{ID: 4, Model: "b", Start: 10, End: 15, GPU: 0, PIM: 0, Batch: 1},
		{ID: 4, Model: "b", Start: 12, End: 14, GPU: -1, PIM: 3, Batch: 1},
	}}))
	f.Add(encodeSchedule(straddleSchedule()))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeSchedule(data)
		want := verify.ReferenceSchedule(c)
		sameDiags(t, "decoded certificate", verify.Schedule(c), want)
		k := 1 + len(data)%7
		sameDiags(t, fmt.Sprintf("decoded certificate in pages of %d", k), pagedSchedule(c, k).Check(), want)
	})
}

// Row tags of the fuzz encoding.
const (
	tagPolicy byte = iota
	tagLeasePolicy
	tagLease
	tagRequest
	tagFrontier
	tags
)

// encodeSchedule writes a certificate as decodeSchedule reads it: the two
// channel counts, then one tagged row per model policy, lease policy,
// lease, request and frontier stamp. Numbers are varints and names
// length-prefixed.
func encodeSchedule(c verify.ScheduleCertificate) []byte {
	b := binary.AppendVarint(nil, int64(c.GPUChannels))
	b = binary.AppendVarint(b, int64(c.PIMChannels))
	nums := func(vs ...int64) {
		for _, v := range vs {
			b = binary.AppendVarint(b, v)
		}
	}
	str := func(s string) {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	names := make([]string, 0, len(c.Policies))
	for name := range c.Policies {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		b = append(b, tagPolicy)
		str(name)
		nums(int64(c.Policies[name].MaxBatch), c.Policies[name].WindowCycles)
	}
	ids := make([]uint64, 0, len(c.LeasePolicies))
	for id := range c.LeasePolicies {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		b = append(b, tagLeasePolicy)
		nums(int64(id), int64(c.LeasePolicies[id].MaxBatch), c.LeasePolicies[id].WindowCycles)
	}
	for _, l := range c.Leases {
		b = append(b, tagLease)
		str(l.Model)
		nums(int64(l.ID), l.Start, l.End, int64(l.GPU), int64(l.PIM), int64(l.Batch))
	}
	for _, r := range c.Requests {
		b = append(b, tagRequest)
		str(r.ID)
		str(r.Model)
		nums(int64(r.LeaseID), r.Arrival, r.BatchArrival, r.Start, r.End, r.BatchWait, r.LeaseWait, r.Execute, r.Latency)
	}
	for _, fr := range c.Frontiers {
		b = append(b, tagFrontier)
		nums(int64(fr.LeaseID), fr.Frontier)
	}
	return b
}

// decodeSchedule reads any byte string as a certificate: a tag byte picks
// the row kind by its value modulo the number of kinds, and a field past
// the end of the input, or a malformed varint, reads as zero.
func decodeSchedule(b []byte) verify.ScheduleCertificate {
	num := func() int64 {
		v, n := binary.Varint(b)
		if n <= 0 {
			b = nil
			return 0
		}
		b = b[n:]
		return v
	}
	str := func() string {
		n, k := binary.Uvarint(b)
		if k <= 0 {
			b = nil
			return ""
		}
		b = b[k:]
		n = min(n, uint64(len(b)))
		s := string(b[:n])
		b = b[n:]
		return s
	}
	c := verify.ScheduleCertificate{GPUChannels: int(num()), PIMChannels: int(num())}
	for len(b) > 0 {
		tag := b[0] % tags
		b = b[1:]
		switch tag {
		case tagPolicy:
			name := str()
			if c.Policies == nil {
				c.Policies = map[string]verify.SchedulePolicy{}
			}
			c.Policies[name] = verify.SchedulePolicy{MaxBatch: int(num()), WindowCycles: num()}
		case tagLeasePolicy:
			id := uint64(num())
			if c.LeasePolicies == nil {
				c.LeasePolicies = map[uint64]verify.SchedulePolicy{}
			}
			c.LeasePolicies[id] = verify.SchedulePolicy{MaxBatch: int(num()), WindowCycles: num()}
		case tagLease:
			c.Leases = append(c.Leases, verify.ScheduleLease{Model: str(), ID: uint64(num()), Start: num(), End: num(),
				GPU: int(num()), PIM: int(num()), Batch: int(num())})
		case tagRequest:
			c.Requests = append(c.Requests, verify.ScheduleRequest{ID: str(), Model: str(), LeaseID: uint64(num()),
				Arrival: num(), BatchArrival: num(), Start: num(), End: num(),
				BatchWait: num(), LeaseWait: num(), Execute: num(), Latency: num()})
		default:
			c.Frontiers = append(c.Frontiers, verify.ScheduleFrontier{LeaseID: uint64(num()), Frontier: num()})
		}
	}
	return c
}

// The encoding round-trips every seed, so a seed checks the certificate
// it was made from.
func TestScheduleFuzzEncodingRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	base := burstyCert(t, 120)
	for i := 0; i < 50; i++ {
		c := forgeSchedule(rng, base)
		got := decodeSchedule(encodeSchedule(c))
		if got.GPUChannels != c.GPUChannels || got.PIMChannels != c.PIMChannels ||
			!slices.Equal(got.Leases, c.Leases) || !slices.Equal(got.Requests, c.Requests) ||
			!slices.Equal(got.Frontiers, c.Frontiers) || !maps.Equal(got.Policies, c.Policies) ||
			!maps.Equal(got.LeasePolicies, c.LeasePolicies) {
			t.Fatalf("forgery %d does not survive the fuzz encoding", i)
		}
	}
}
