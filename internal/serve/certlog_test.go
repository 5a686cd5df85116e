package serve

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"pimflow/internal/verify"
)

// Len and Rows at the page boundaries: empty, one row, a page short, a
// full page, one row into the second page, and three pages.
func TestCertLogPageBoundaries(t *testing.T) {
	page := pageRows[verify.ScheduleFrontier]()
	for _, n := range []int{0, 1, page - 1, page, page + 1, 3 * page} {
		var l CertLog[verify.ScheduleFrontier]
		want := make([]verify.ScheduleFrontier, n)
		for i := range want {
			want[i] = verify.ScheduleFrontier{LeaseID: uint64(i + 1), Frontier: int64(10 * i)}
			l.Append(want[i])
		}
		if l.Len() != n {
			t.Fatalf("n=%d: Len %d", n, l.Len())
		}
		rows := l.Rows()
		if n == 0 {
			if rows != nil {
				t.Fatalf("empty log: Rows %v, want nil", rows)
			}
			continue
		}
		if len(rows) != n || cap(rows) != n {
			t.Fatalf("n=%d: Rows len %d cap %d, want an exact-length copy", n, len(rows), cap(rows))
		}
		if !reflect.DeepEqual(rows, want) {
			t.Fatalf("n=%d: rows differ from what was appended", n)
		}
		// The copy is the caller's: forging it leaves the log alone.
		rows[0].Frontier, rows[n-1].LeaseID = -1, 0
		if again := l.Rows(); !reflect.DeepEqual(again, want) {
			t.Fatalf("n=%d: mutating a Rows copy changed the log", n)
		}
	}
}

// Recording n rows allocates the rows plus at most one partly filled
// page (and the small page index); an append-grown slice allocates
// about twice the rows it ends with, since every reallocation leaves the
// previous array behind.
func TestCertLogAllocatesRowsPlusOnePage(t *testing.T) {
	row := verify.ScheduleRequest{ID: "r000001", Model: "toy", LeaseID: 1, End: 9}
	size := uint64(unsafe.Sizeof(row))
	n := 10*pageRows[verify.ScheduleRequest]() + 1
	// TotalAlloc counts every goroutine's allocations, and other tests'
	// servers may still allocate in the background, so the fewest bytes
	// over a few recordings is the recording's own.
	bytesOf := func(record func() int) uint64 {
		best := ^uint64(0)
		for trial := 0; trial < 5; trial++ {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			if got := record(); got != n {
				t.Fatalf("recorded %d rows, want %d", got, n)
			}
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	paged := bytesOf(func() int {
		var l CertLog[verify.ScheduleRequest]
		for i := 0; i < n; i++ {
			l.Append(row)
		}
		return l.Len()
	})
	const indexSlack = 1024 // the page index: a few dozen pointers
	if limit := uint64(n)*size + logPageBytes + indexSlack; paged > limit {
		t.Errorf("recording %d rows of %d bytes allocated %d bytes, want at most %d", n, size, paged, limit)
	}
	grown := bytesOf(func() int {
		var s []verify.ScheduleRequest
		for i := 0; i < n; i++ {
			s = append(s, row)
		}
		return len(s)
	})
	if paged >= grown {
		t.Errorf("paged log allocated %d bytes, an append-grown slice %d", paged, grown)
	}
}
