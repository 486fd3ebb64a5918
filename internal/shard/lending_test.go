package shard_test

import (
	"sync/atomic"
	"testing"

	"hep/internal/graph"
	"hep/internal/obs"
	"hep/internal/part"
	"hep/internal/shard"
)

// slabSource is a chunk-lending stream over pre-cut slabs with a per-slab
// release counter, so tests can pin the release-exactly-once discipline.
type slabSource struct {
	slabs    [][]graph.Edge
	n        int
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
	c := obs.NewCounters(1)
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
	c := obs.NewCounters(1)
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

// TestAbortStreamReleasesSlabs pins the abort discipline of the lending
// path: once Stop is set, AbortStream.Chunks refuses further slabs and
// releases the refused slab itself.
func TestAbortStreamReleasesSlabs(t *testing.T) {
	src := newSlabSource(101, 50, 4)
	var stop atomic.Bool
	as := shard.AbortStream{EdgeStream: src, Stop: &stop}
	if !as.LendsChunks() {
		t.Fatal("AbortStream over a lending source must lend")
	}
	cs, ok := graph.AsChunks(as)
	if !ok {
		t.Fatal("AsChunks(AbortStream over lending source) = false")
	}
	yields := 0
	if err := cs.Chunks(func(edges []graph.Edge, release func()) bool {
		yields++
		stop.Store(true)
		release()
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if yields != 1 {
		t.Fatalf("yielded %d slabs after Stop, want 1", yields)
	}
	if n := src.released[0].Load(); n != 1 {
		t.Fatalf("consumed slab released %d times, want 1", n)
	}
	if n := src.released[1].Load(); n != 1 {
		t.Fatalf("refused slab released %d times, want 1 (AbortStream must release it)", n)
	}
	for i := 2; i < 4; i++ {
		if n := src.released[i].Load(); n != 0 {
			t.Fatalf("never-lent slab %d released %d times", i, n)
		}
	}

	// A non-lending source wrapped in AbortStream must not advertise chunks.
	plain := edgesOnly{s: src}
	if (shard.AbortStream{EdgeStream: plain, Stop: &stop}).LendsChunks() {
		t.Fatal("AbortStream over a plain source claims to lend")
	}
	if _, ok := graph.AsChunks(shard.AbortStream{EdgeStream: plain, Stop: &stop}); ok {
		t.Fatal("AsChunks(AbortStream over plain source) = true")
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
