package serve

import "unsafe"

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

// Rows returns the recorded rows in order as an exact-length copy, nil
// when the log is empty. A certificate is pure data a test may forge, so
// the copy shares no row with the log.
func (l *CertLog[T]) Rows() []T {
	if l.tail == nil {
		return nil
	}
	out := make([]T, 0, l.Len())
	for _, p := range l.full {
		out = append(out, p...)
	}
	return append(out, l.tail...)
}
