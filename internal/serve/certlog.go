package serve

import (
	"unsafe"

	"pimflow/internal/verify"
)

// logPageBytes is the size of one CertLog page: the largest
// small-object size class, so a page of rows wastes less than one row to
// rounding.
const logPageBytes = 32 << 10

// CertLog is the append-only row log a certificate recorder keeps: the
// schedule certificate's leases, requests and frontier stamps, and the
// fleet's hops. Rows live in fixed-size pages, so a recorded row is
// never moved, copied or re-zeroed as the log grows, where a slice grown
// by doubling copies every row on each reallocation and leaves the old
// array as garbage. The zero value is an empty log. A CertLog is not
// safe for concurrent use; each recorder appends under its own lock.
type CertLog[T any] struct {
	full [][]T // filled pages
	tail []T   // the page being filled; nil before the first row
}

// pageRows is the row capacity of a CertLog[T] page.
func pageRows[T any]() int {
	var row T
	return max(1, logPageBytes/max(1, int(unsafe.Sizeof(row))))
}

// Append records one row.
func (l *CertLog[T]) Append(row T) {
	if len(l.tail) == cap(l.tail) {
		if l.tail != nil {
			l.full = append(l.full, l.tail)
		}
		l.tail = make([]T, 0, pageRows[T]())
	}
	l.tail = append(l.tail, row)
}

// Len returns the number of recorded rows.
func (l *CertLog[T]) Len() int { return len(l.full)*cap(l.tail) + len(l.tail) }

// View views the recorded rows in place: it copies the page headers, not
// the rows. A filled page is never written again and the tail grows past
// the view, so it may be read outside the recorder's lock.
func (l *CertLog[T]) View() verify.Rows[T] {
	return verify.RowsOf(append(l.full[:len(l.full):len(l.full)], l.tail)...)
}
