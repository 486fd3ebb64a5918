package pstate

import (
	"testing"
	"unsafe"
)

// trackers keeps the trackers under test on the heap, where the parallel
// workers' trackers live.
var trackers []*Loads

// TestLoadsOwnCacheLines pins the padding of Loads: trackers allocated back
// to back, as the parallel HDRF workers' local views are, must not share a
// 64-byte cache line between any of the parts an increment writes — the
// struct and the backing arrays of counts and atMin.
func TestLoadsOwnCacheLines(t *testing.T) {
	if size := unsafe.Sizeof(Loads{}); size%64 != 0 {
		t.Fatalf("Loads is %d B, not a whole number of cache lines", size)
	}
	lines := func(p unsafe.Pointer, bytes uintptr) (first, last uintptr) {
		return uintptr(p) / 64, (uintptr(p) + bytes - 1) / 64
	}
	for _, k := range []int{1, 10, 64, 65, 128, 200} {
		trackers = trackers[:0]
		for i := 0; i < 8; i++ {
			trackers = append(trackers, NewLoads(k))
		}
		owner := map[uintptr]int{}
		for i, l := range trackers {
			for _, part := range []struct {
				p     unsafe.Pointer
				bytes uintptr
			}{
				{unsafe.Pointer(l), unsafe.Sizeof(*l)},
				{unsafe.Pointer(unsafe.SliceData(l.counts)), uintptr(cap(l.counts)) * 8},
				{unsafe.Pointer(unsafe.SliceData(l.atMin)), uintptr(cap(l.atMin)) * 8},
			} {
				first, last := lines(part.p, part.bytes)
				for line := first; line <= last; line++ {
					if o, ok := owner[line]; ok && o != i {
						t.Fatalf("k=%d: trackers %d and %d share cache line %#x", k, o, i, line*64)
					}
					owner[line] = i
				}
			}
		}
	}
}
