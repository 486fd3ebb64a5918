package shard_test

import (
	"math"
	"testing"

	"hep/internal/pstate"
	"hep/internal/shard"
)

// TestFixedBatch pins the legacy heuristic and its count-less behavior: the
// m/(50·W) clamp when m is known, the DefaultBatchEdges ceiling — not the
// floor — when it is not.
func TestFixedBatch(t *testing.T) {
	cases := []struct {
		m       int64
		workers int
		want    int
	}{
		{0, 8, shard.DefaultBatchEdges},  // count unknown: never collapse to the floor
		{-1, 4, shard.DefaultBatchEdges}, // negative sentinel, same contract
		{1 << 20, 8, (1 << 20) / (50 * 8)},
		{1 << 30, 8, shard.DefaultBatchEdges}, // huge stream: ceiling
		{1000, 8, shard.MinBatchEdges},        // tiny stream: floor
		{1 << 20, 0, shard.DefaultBatchEdges}, // workers clamp to 1: 1Mi/50 > ceiling
	}
	for _, c := range cases {
		if got := shard.FixedBatch(c.m, c.workers); got != c.want {
			t.Errorf("FixedBatch(%d, %d) = %d, want %d", c.m, c.workers, got, c.want)
		}
	}
}

// loadsAt builds a ShardedLoads whose partition 0 carries the given load.
func loadsAt(k int, load int64) *shard.ShardedLoads {
	g := pstate.NewLoads(k)
	for i := int64(0); i < load; i++ {
		g.Inc(0)
	}
	return shard.NewShardedLoads(g, 1)
}

// TestAdaptiveSizerPolicy pins the capacity-aware sizing curve: ceiling
// while headroom is plentiful, proportional shrink as maxLoad climbs, floor
// at (and past) the bound, ceiling again when capacity is unbounded.
func TestAdaptiveSizerPolicy(t *testing.T) {
	const k, workers, ceil = 4, 2, 4096
	const capacity = 1 << 20

	// Empty loads: head = capacity, head/(2W) far above the ceiling.
	s := shard.NewAdaptiveSizer(loadsAt(k, 0), capacity, workers, ceil)
	if got := s.NextBatch(); got != ceil {
		t.Fatalf("empty loads: batch = %d, want ceiling %d", got, ceil)
	}

	// Mid-range: head = 8000 → 8000/(2·2) = 2000.
	s = shard.NewAdaptiveSizer(loadsAt(k, capacity-8000), capacity, workers, ceil)
	if got := s.NextBatch(); got != 2000 {
		t.Fatalf("mid headroom: batch = %d, want 2000", got)
	}

	// Near the bound: head = 100 → below the floor.
	s = shard.NewAdaptiveSizer(loadsAt(k, capacity-100), capacity, workers, ceil)
	if got := s.NextBatch(); got != shard.MinBatchEdges {
		t.Fatalf("near bound: batch = %d, want floor %d", got, shard.MinBatchEdges)
	}

	// At/past the bound: no headroom left.
	s = shard.NewAdaptiveSizer(loadsAt(k, capacity), capacity, workers, ceil)
	if got := s.NextBatch(); got != shard.MinBatchEdges {
		t.Fatalf("at bound: batch = %d, want floor %d", got, shard.MinBatchEdges)
	}

	// Unbounded capacity (m unknown → stream.Capacity's MaxInt64): pinned at
	// the ceiling, no loads read.
	s = shard.NewAdaptiveSizer(nil, math.MaxInt64, workers, ceil)
	if got := s.NextBatch(); got != ceil {
		t.Fatalf("unbounded: batch = %d, want ceiling %d", got, ceil)
	}
	s = shard.NewAdaptiveSizer(nil, 0, workers, ceil)
	if got := s.NextBatch(); got != ceil {
		t.Fatalf("capacity 0 (disabled): batch = %d, want ceiling %d", got, ceil)
	}

	// Tiny graphs: a ceiling below MinBatchEdges lowers the floor with it
	// (m < W·floor must not inflate batches past the stream).
	s = shard.NewAdaptiveSizer(loadsAt(k, capacity), capacity, workers, 64)
	if got := s.NextBatch(); got != 64 {
		t.Fatalf("tiny ceiling at bound: batch = %d, want 64", got)
	}
}
