package shard

import "math"

// This file is the batch-sizing policy layer. The engine fans edges out in
// batches, and the batch size is a staleness dial: a worker scores the HDRF
// balance term against load bounds that are stale by at most the edges the
// other workers placed since its last fold — roughly W·batch edges. Far from
// the α capacity bound that staleness is harmless (every candidate partition
// has room), so big batches win: fewer folds, fewer snapshots, less
// synchronization per edge. Near the bound the same staleness lets workers
// overshoot capacity in unison, so batches should shrink and tighten the
// feedback loop. FixedBatch is the legacy one-number compromise; the
// AdaptiveSizer moves the dial per batch from the live load bounds.

// BatchSizer dictates the size of each successive dispatch batch. NextBatch
// is called once per batch from the single dispatcher goroutine (never
// concurrently); the engine clamps the result to [1, Options.BatchEdges].
type BatchSizer interface {
	NextBatch() int
}

// FixedBatch is the legacy fixed-size heuristic: m/(50·W) — about 50 fold
// windows per worker over the whole stream — clamped to [MinBatchEdges,
// DefaultBatchEdges]. A non-positive totalM (count-less stream) returns
// DefaultBatchEdges: when m is unknown the heuristic has no numerator, and
// collapsing to the floor would multiply synchronization 16× for nothing.
func FixedBatch(totalM int64, workers int) int {
	if workers < 1 {
		workers = 1
	}
	if totalM <= 0 {
		return DefaultBatchEdges
	}
	b := totalM / int64(50*workers)
	if b >= DefaultBatchEdges {
		return DefaultBatchEdges
	}
	if b < MinBatchEdges {
		return MinBatchEdges
	}
	return int(b)
}

// unboundedCap is the threshold above which a capacity is treated as "no
// bound": the scorers use math.MaxInt64 for unknown m (stream.Capacity), and
// anything in that region can never be approached by real loads.
const unboundedCap = math.MaxInt64 / 2

// AdaptiveSizer is the capacity-aware batch-sizing policy: each batch is
// sized to half the per-worker headroom under the α capacity bound,
//
//	batch = (capacity − maxLoad) / (2·W), clamped to [floor, ceil]
//
// so while the most-loaded partition has lots of room batches sit at the
// ceiling (cheap staleness, minimal synchronization), and as maxLoad climbs
// toward capacity the batches shrink — the 2·W divisor guarantees that even
// if every worker simultaneously dumped its whole stale batch onto the
// most-loaded partition, the bound would not be crossed by more than half
// the remaining headroom per round, which geometrically tightens to the
// floor. An unbounded capacity (α disabled, or m unknown) pins the ceiling.
//
// NextBatch reads the live load bounds through ShardedLoads.Bounds — one
// short mutex section per batch, on the dispatcher thread, off the placement
// workers' hot path.
type AdaptiveSizer struct {
	loads    *ShardedLoads
	capacity int64
	workers  int
	floor    int
	ceil     int
}

// NewAdaptiveSizer returns the policy for a run of workers workers whose
// partitions hold at most capacity edges (≤ 0 or ≥ math.MaxInt64/2 = no
// bound). ceil is the largest batch the policy will ask for — pass the
// engine's resolved BatchEdges. The floor is MinBatchEdges, lowered to ceil
// for tiny graphs whose ceiling is already below it.
func NewAdaptiveSizer(loads *ShardedLoads, capacity int64, workers, ceil int) *AdaptiveSizer {
	if workers < 1 {
		workers = 1
	}
	if ceil < 1 {
		ceil = DefaultBatchEdges
	}
	floor := MinBatchEdges
	if ceil < floor {
		floor = ceil
	}
	return &AdaptiveSizer{loads: loads, capacity: capacity, workers: workers, floor: floor, ceil: ceil}
}

// NextBatch implements BatchSizer.
func (a *AdaptiveSizer) NextBatch() int {
	if a.capacity <= 0 || a.capacity >= unboundedCap {
		return a.ceil
	}
	max, _ := a.loads.Bounds()
	head := a.capacity - max
	if head <= 0 {
		return a.floor
	}
	b := head / int64(2*a.workers)
	if b >= int64(a.ceil) {
		return a.ceil
	}
	if b < int64(a.floor) {
		return a.floor
	}
	return int(b)
}
