package pstate

import "math/bits"

// Loads tracks per-partition edge counts together with their maximum and
// minimum, maintained incrementally so the streaming hot loop never rescans
// all k counts per edge (the O(k) loadBounds scan the partition-major code
// paid on top of its scoring loop).
//
// Invariant: loads only grow (one edge assignment = one increment), which is
// what makes the tracking cheap. Max is trivial. For the minimum, Loads
// keeps the set of partitions currently at the minimum as a k-bit mask; when
// the last of them is incremented the minimum advances by exactly one (every
// other partition is at least min+1 and the incremented one is exactly
// min+1) and the mask is rebuilt with one O(k) scan. The minimum advances at
// most finalMin ≤ m/k times over a whole run, so rebuilds amortize to O(m)
// total — O(1) per edge.
//
// The zero value is unusable; use NewLoads. Not safe for concurrent use.
type Loads struct {
	counts   []int64
	max, min int64
	atMin    []uint64 // partitions with counts[p] == min
	nAtMin   int
}

// NewLoads returns a tracker for k partitions, all at load zero.
func NewLoads(k int) *Loads {
	l := &Loads{
		counts: make([]int64, k),
		atMin:  make([]uint64, (k+63)/64),
		nAtMin: k,
	}
	for p := 0; p < k; p++ {
		l.atMin[p>>6] |= 1 << (uint(p) & 63)
	}
	return l
}

// Counts exposes the backing counts slice. Readers may index it freely;
// writers must go through Inc/Bulk or the max/min bookkeeping goes stale.
func (l *Loads) Counts() []int64 { return l.counts }

// K returns the partition count.
func (l *Loads) K() int { return len(l.counts) }

// Max returns the current maximum load.
func (l *Loads) Max() int64 { return l.max }

// Min returns the current minimum load.
func (l *Loads) Min() int64 { return l.min }

// Inc adds one edge to partition p.
func (l *Loads) Inc(p int) {
	c := l.counts[p] + 1
	l.counts[p] = c
	if c > l.max {
		l.max = c
	}
	if c-1 == l.min {
		l.atMin[p>>6] &^= 1 << (uint(p) & 63)
		l.nAtMin--
		if l.nAtMin == 0 {
			l.min++
			l.rebuildMin()
		}
	}
}

// rebuildMin rescans the counts for partitions at the (already advanced)
// minimum. Amortized across a run this is O(1) per edge; see the type doc.
func (l *Loads) rebuildMin() {
	for i := range l.atMin {
		l.atMin[i] = 0
	}
	l.nAtMin = 0
	for p, c := range l.counts {
		if c == l.min {
			l.atMin[p>>6] |= 1 << (uint(p) & 63)
			l.nAtMin++
		}
	}
}

// ArgMin returns the lowest-index partition at the minimum load — the
// balance-only fallback target of every streaming partitioner and the
// tie-break anchor of the scoring loop. O(⌈k/64⌉).
func (l *Loads) ArgMin() int {
	for wi, w := range l.atMin {
		if w != 0 {
			return wi<<6 + bits.TrailingZeros64(w)
		}
	}
	return 0 // unreachable: nAtMin ≥ 1 by construction
}

// Bulk adds delta edges to partition p. For delta ≥ 0 the bounds are
// maintained in O(1) — max trivially, min by clearing p from the at-minimum
// mask and rescanning only when the mask empties. A negative delta (a
// refinement move out of p) breaks the grow-only invariant and falls back
// to a full recompute.
func (l *Loads) Bulk(p int, delta int64) {
	if delta == 0 {
		return
	}
	c := l.counts[p] + delta
	l.counts[p] = c
	if delta < 0 {
		l.recompute()
		return
	}
	if c > l.max {
		l.max = c
	}
	if c-delta == l.min {
		l.atMin[p>>6] &^= 1 << (uint(p) & 63)
		l.nAtMin--
		if l.nAtMin == 0 {
			l.advanceMin()
		}
	}
}

// advanceMin rescans the counts for the new minimum after the at-minimum
// set emptied under Bulk (unlike Inc's unit steps, a bulk delta can jump
// the minimum by more than one).
func (l *Loads) advanceMin() {
	min := l.counts[0]
	for _, c := range l.counts[1:] {
		if c < min {
			min = c
		}
	}
	l.min = min
	l.rebuildMin()
}

// recompute rebuilds max, min and the at-minimum mask from scratch.
func (l *Loads) recompute() {
	l.max, l.min = l.counts[0], l.counts[0]
	for _, c := range l.counts[1:] {
		if c > l.max {
			l.max = c
		}
		if c < l.min {
			l.min = c
		}
	}
	l.rebuildMin()
}
