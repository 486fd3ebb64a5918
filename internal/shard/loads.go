package shard

import (
	"sync"

	"hep/internal/check"
	"hep/internal/obs"
	"hep/internal/pstate"
)

// ShardedLoads wraps the global pstate.Loads tracker with one delta lane per
// worker. Workers record assignments in their own lane (no synchronization
// on the hot path) and fold the lane into the global tracker at batch
// boundaries; Snapshot hands a worker the folded counts together with the
// tracked max/min/argmin. A worker therefore scores the HDRF balance term
// against bounds that are stale by at most the edges the other workers
// placed since its last batch boundary — the bounded-staleness discipline of
// batch-parallel streaming partitioners.
type ShardedLoads struct {
	mu     sync.Mutex
	global *pstate.Loads
	deltas [][]int64 // one k-length lane per worker
	obs    *obs.Counters
}

// NewShardedLoads wraps global with w delta lanes. The global tracker must
// not be written through any other path until the parallel run finishes.
// Each lane is allocated in whole 64-byte cache lines: every placed edge
// increments the placing worker's lane, and lanes packed back to back would
// make two workers' increments contend for a shared line.
func NewShardedLoads(global *pstate.Loads, w int) *ShardedLoads {
	k := global.K()
	deltas := make([][]int64, w)
	for i := range deltas {
		deltas[i] = make([]int64, k, (k+7)&^7)
	}
	return &ShardedLoads{global: global, deltas: deltas}
}

// K returns the partition count.
func (s *ShardedLoads) K() int { return s.global.K() }

// SetObs installs a fold-window counter sink (nil = disabled).
func (s *ShardedLoads) SetObs(c *obs.Counters) { s.obs = c }

// Inc records one edge assigned to partition p in worker w's lane. Only
// worker w may call it (single-writer per lane, lock-free).
//
//hep:noalloc
func (s *ShardedLoads) Inc(w, p int) { s.deltas[w][p]++ }

// Fold merges worker w's lane into the global tracker and clears the lane.
// O(changed partitions) through Loads.Merge.
func (s *ShardedLoads) Fold(w int) {
	d := s.deltas[w]
	s.mu.Lock()
	s.mergeChecked(d)
	s.mu.Unlock()
	for p := range d {
		d[p] = 0
	}
	s.obs.Add(w, obs.CtrFolds, 1)
}

// mergeChecked folds lane d into the global tracker. Under hepcheck it
// asserts the fold window conserves edge totals — the global gains exactly
// the lane sum, nothing lost or double-counted. Caller holds s.mu.
func (s *ShardedLoads) mergeChecked(d []int64) {
	if check.Enabled {
		var before, lane, after int64
		for _, c := range s.global.Counts() {
			before += c
		}
		for _, x := range d {
			lane += x
		}
		s.global.Merge(d)
		for _, c := range s.global.Counts() {
			after += c
		}
		check.Assertf(after == before+lane, "fold window not conserved: global %d + lane %d != %d", before, lane, after)
		return
	}
	s.global.Merge(d)
}

// Snapshot copies the folded global counts into dst (len k) and returns the
// tracked bounds — the view a worker scores one batch against.
func (s *ShardedLoads) Snapshot(dst []int64) (max, min int64, argmin int) {
	s.mu.Lock()
	copy(dst, s.global.Counts())
	max, min, argmin = s.global.Max(), s.global.Min(), s.global.ArgMin()
	s.mu.Unlock()
	return max, min, argmin
}

// Bounds returns the tracked (max, min) of the folded global counts without
// copying them — the cheap read the adaptive batch sizer takes once per
// dispatched batch.
func (s *ShardedLoads) Bounds() (max, min int64) {
	s.mu.Lock()
	max, min = s.global.Max(), s.global.Min()
	s.mu.Unlock()
	return max, min
}
