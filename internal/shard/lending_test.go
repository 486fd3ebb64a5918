package shard_test

import (
	"errors"
	"sync/atomic"
	"testing"

	"hep/internal/graph"
	"hep/internal/obs"
	"hep/internal/part"
	"hep/internal/shard"
)

// slabSource is a chunk-lending stream over pre-cut slabs with a count of
// the slabs lent and a per-slab release counter, so tests can pin the
// release-exactly-once discipline.
type slabSource struct {
	slabs    [][]graph.Edge
	n        int
	lent     int
	released []atomic.Int32
}

func newSlabSource(n, slabEdges, slabCount int) *slabSource {
	s := &slabSource{n: n, released: make([]atomic.Int32, slabCount)}
	x := 0
	for i := 0; i < slabCount; i++ {
		slab := make([]graph.Edge, slabEdges)
		for j := range slab {
			slab[j] = graph.Edge{U: graph.V(x % n), V: graph.V((3*x + 1) % n)}
			x++
		}
		s.slabs = append(s.slabs, slab)
	}
	return s
}

func (s *slabSource) NumVertices() int { return s.n }

func (s *slabSource) NumEdges() int64 {
	var m int64
	for _, sl := range s.slabs {
		m += int64(len(sl))
	}
	return m
}

func (s *slabSource) all() []graph.Edge {
	var out []graph.Edge
	for _, sl := range s.slabs {
		out = append(out, sl...)
	}
	return out
}

func (s *slabSource) Edges(yield func(u, v graph.V) bool) error {
	for _, sl := range s.slabs {
		for i := range sl {
			if !yield(sl[i].U, sl[i].V) {
				return nil
			}
		}
	}
	return nil
}

func (s *slabSource) Chunks(yield func(edges []graph.Edge, release func()) bool) error {
	for i, sl := range s.slabs {
		rc := &s.released[i]
		s.lent++
		if !yield(sl, func() { rc.Add(1) }) {
			return nil
		}
	}
	return nil
}

// edgesOnly hides a stream's Chunks method, so Run copies its edges into a
// slab through shard.Lend.
type edgesOnly struct{ s graph.EdgeStream }

func (e edgesOnly) NumVertices() int                          { return e.s.NumVertices() }
func (e edgesOnly) NumEdges() int64                           { return e.s.NumEdges() }
func (e edgesOnly) Edges(yield func(u, v graph.V) bool) error { return e.s.Edges(yield) }

// TestLendingOrderedDeliveryAndRelease pins the lending path: delivery is
// in exact stream order with every edge exactly once, every slab's release
// fires exactly once, and the copy counters stay at zero.
func TestLendingOrderedDeliveryAndRelease(t *testing.T) {
	const k = 13
	src := newSlabSource(997, 1000, 9)
	want := src.all()
	c := obs.NewCounters()
	var got []part.TaggedEdge
	err := shard.Run(src, &orderPlacer{k: k}, c, func(edges []graph.Edge, parts []int32) {
		for i := range edges {
			got = append(got, part.TaggedEdge{E: edges[i], P: int(parts[i])})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("delivered %d of %d edges", len(got), len(want))
	}
	for i := range got {
		wantP := int((want[i].U + 3*want[i].V) % graph.V(k))
		if got[i].E != want[i] || got[i].P != wantP {
			t.Fatalf("delivery %d = %v→%d, want %v→%d", i, got[i].E, got[i].P, want[i], wantP)
		}
	}
	for i := range src.released {
		if n := src.released[i].Load(); n != 1 {
			t.Fatalf("slab %d released %d times, want exactly 1", i, n)
		}
	}
	if n := c.Total(obs.CtrChunksLent); n != int64(len(src.slabs)) {
		t.Fatalf("chunks_lent = %d, want %d", n, len(src.slabs))
	}
	if n := c.Total(obs.CtrBytesCopiedDispatch); n != 0 {
		t.Fatalf("bytes_copied_dispatch = %d on the lending path, want 0", n)
	}
	if n := c.Total(obs.CtrChunkCopyFallbacks); n != 0 {
		t.Fatalf("chunk_copy_fallbacks = %d on the lending path, want 0", n)
	}
}

// TestNonLendingSourceCopiedIntoSlabs pins Lend's adapter under Run: a
// source that does not lend is delivered in exact stream order with every
// edge exactly once, in batches of at most DefaultBatchEdges, its edges
// are copied once (bytes_copied_dispatch = 8·m, one copy fallback per slab
// of DefaultBatchEdges edges) and nothing counts as lent.
func TestNonLendingSourceCopiedIntoSlabs(t *testing.T) {
	const k = 13
	slabs := newSlabSource(997, 1000, 9)
	want := slabs.all()
	m := int64(len(want))
	c := obs.NewCounters()
	var got []part.TaggedEdge
	err := shard.Run(edgesOnly{s: slabs}, &orderPlacer{k: k}, c, func(edges []graph.Edge, parts []int32) {
		if len(edges) > shard.DefaultBatchEdges {
			t.Fatalf("batch of %d edges above the %d ceiling", len(edges), shard.DefaultBatchEdges)
		}
		for i := range edges {
			got = append(got, part.TaggedEdge{E: edges[i], P: int(parts[i])})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(got)) != m {
		t.Fatalf("delivered %d of %d edges", len(got), m)
	}
	for i := range got {
		wantP := int((want[i].U + 3*want[i].V) % graph.V(k))
		if got[i].E != want[i] || got[i].P != wantP {
			t.Fatalf("delivery %d = %v→%d, want %v→%d", i, got[i].E, got[i].P, want[i], wantP)
		}
	}
	if n := c.Total(obs.CtrBytesCopiedDispatch); n != 8*m {
		t.Fatalf("bytes_copied_dispatch = %d, want %d", n, 8*m)
	}
	if n, want := c.Total(obs.CtrChunkCopyFallbacks), (m+shard.DefaultBatchEdges-1)/shard.DefaultBatchEdges; n != want {
		t.Fatalf("chunk_copy_fallbacks = %d, want %d (one per slab)", n, want)
	}
	if n := c.Total(obs.CtrChunksLent); n != 0 {
		t.Fatalf("chunks_lent = %d for a non-lending source, want 0", n)
	}
	for i := range slabs.released {
		if n := slabs.released[i].Load(); n != 0 {
			t.Fatalf("slab %d of the hidden source released %d times", i, n)
		}
	}
}

// failPlacer fails on batch failAt (0-based) and places every earlier
// batch on partition 0.
type failPlacer struct {
	failAt, calls int
}

var errPlace = errors.New("placement failed")

func (f *failPlacer) PlaceBatch(edges []graph.Edge, parts []int32) error {
	f.calls++
	if f.calls > f.failAt {
		return errPlace
	}
	for i := range parts {
		parts[i] = 0
	}
	return nil
}

// TestRunStopsOnPlacerError pins how Run ends a pass on a placer error.
// Over a lending source Run returns the error, releases the slab in hand
// exactly once, asks for no further slab and delivers no batch from the
// failed one on. Over a non-lending source the scan stops within the one
// copy slab.
func TestRunStopsOnPlacerError(t *testing.T) {
	for _, failAt := range []int{0, 1} {
		src := newSlabSource(101, 3*shard.DefaultBatchEdges, 4)
		p := &failPlacer{failAt: failAt}
		delivered := 0
		err := shard.Run(src, p, obs.NewCounters(), func(edges []graph.Edge, parts []int32) {
			delivered++
		})
		if !errors.Is(err, errPlace) {
			t.Fatalf("failAt=%d: Run returned %v, want the placer's error", failAt, err)
		}
		if p.calls != failAt+1 || delivered != failAt {
			t.Fatalf("failAt=%d: %d PlaceBatch calls and %d deliveries, want %d and %d",
				failAt, p.calls, delivered, failAt+1, failAt)
		}
		if src.lent != 1 {
			t.Fatalf("failAt=%d: source lent %d slabs, want 1", failAt, src.lent)
		}
		if n := src.released[0].Load(); n != 1 {
			t.Fatalf("failAt=%d: slab in hand released %d times, want exactly 1", failAt, n)
		}
	}

	slabs := newSlabSource(101, 1000, 20)
	plain := &countingStream{EdgeStream: slabs}
	if err := shard.Run(plain, &failPlacer{}, nil, func([]graph.Edge, []int32) {
		t.Fatal("delivered a failed batch")
	}); !errors.Is(err, errPlace) {
		t.Fatalf("non-lending source: Run returned %v, want the placer's error", err)
	}
	if plain.yielded > shard.DefaultBatchEdges {
		t.Fatalf("non-lending source: scanned %d edges, want at most one copy slab (%d)",
			plain.yielded, shard.DefaultBatchEdges)
	}
}

// TestRunOneReusesBatchBuffer is the allocation regression of the copy
// path: Run must reuse one copy slab and one parts buffer for the whole
// run instead of allocating per batch, so allocations stay a small
// constant however many batches the stream spans.
func TestRunOneReusesBatchBuffer(t *testing.T) {
	edges := make([]graph.Edge, 200_000)
	for i := range edges {
		edges[i] = graph.Edge{U: graph.V(i % 613), V: graph.V((5 * i) % 617)}
	}
	src := edgesOnly{s: graph.NewMemGraph(617, edges)}
	allocs := testing.AllocsPerRun(5, func() {
		err := shard.Run(src, &orderPlacer{k: 3}, nil, func(edges []graph.Edge, parts []int32) {})
		if err != nil {
			t.Fatal(err)
		}
	})
	// ~49 batches per run; a per-batch allocation would show up as
	// dozens. The fixed cost is the copy slab, the parts buffer and a
	// handful of closures.
	if allocs > 16 {
		t.Fatalf("run allocated %.0f times, want a small batch-count-independent constant", allocs)
	}
}
