package shard

import (
	"testing"
	"unsafe"

	"hep/internal/pstate"
)

// TestShardedLoadsLanesOwnCacheLines pins the layout of the delta lanes:
// each HDRF worker increments its own lane once per placed edge, so no two
// lanes may share a 64-byte cache line at any k, including the k whose
// k·8-byte lanes do not fill whole lines.
func TestShardedLoadsLanesOwnCacheLines(t *testing.T) {
	for _, k := range []int{1, 10, 20, 32, 65, 128, 200} {
		s := NewShardedLoads(pstate.NewLoads(k), 8)
		owner := map[uintptr]int{}
		for w, lane := range s.deltas {
			start := uintptr(unsafe.Pointer(unsafe.SliceData(lane)))
			end := start + uintptr(cap(lane))*8
			for line := start / 64; line <= (end-1)/64; line++ {
				if o, ok := owner[line]; ok && o != w {
					t.Fatalf("k=%d: lanes %d and %d share cache line %#x", k, o, w, line*64)
				}
				owner[line] = w
			}
		}
	}
}
