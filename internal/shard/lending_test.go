package shard_test

import (
	"sync/atomic"
	"testing"

	"hep/internal/check"
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

// edgesOnly hides a stream's Chunks method, so the engine copies its edges
// into slabs through shard.Lend.
type edgesOnly struct{ s graph.EdgeStream }

func (e edgesOnly) NumVertices() int                          { return e.s.NumVertices() }
func (e edgesOnly) NumEdges() int64                           { return e.s.NumEdges() }
func (e edgesOnly) Edges(yield func(u, v graph.V) bool) error { return e.s.Edges(yield) }

// TestLendingOrderedDeliveryAndRelease pins the chunk-lending dispatch: for
// W ∈ {1, 2, 4} delivery is in exact stream order with every edge exactly
// once, every slab's release fires exactly once, and the dispatch-thread
// copy counters stay at zero.
func TestLendingOrderedDeliveryAndRelease(t *testing.T) {
	const k = 13
	for _, workers := range []int{1, 2, 4} {
		src := newSlabSource(997, 1000, 9)
		want := src.all()
		ws := make([]shard.BatchPlacer, workers)
		for i := range ws {
			ws[i] = &orderPlacer{k: k}
		}
		o := obs.New(workers)
		c := o.Counters()
		var got []part.TaggedEdge
		err := shard.Run(src, ws, shard.Options{BatchEdges: 128, Obs: o}, func(edges []graph.Edge, parts []int32) {
			for i := range edges {
				got = append(got, part.TaggedEdge{E: edges[i], P: int(parts[i])})
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("W=%d: delivered %d of %d edges", workers, len(got), len(want))
		}
		for i := range got {
			wantP := int((want[i].U + 3*want[i].V) % graph.V(k))
			if got[i].E != want[i] || got[i].P != wantP {
				t.Fatalf("W=%d: delivery %d = %v→%d, want %v→%d", workers, i, got[i].E, got[i].P, want[i], wantP)
			}
		}
		for i := range src.released {
			if n := src.released[i].Load(); n != 1 {
				t.Fatalf("W=%d: slab %d released %d times, want exactly 1", workers, i, n)
			}
		}
		if n := c.Total(obs.CtrChunksLent); n != int64(len(src.slabs)) {
			t.Fatalf("W=%d: chunks_lent = %d, want %d", workers, n, len(src.slabs))
		}
		if n := c.Total(obs.CtrBytesCopiedDispatch); n != 0 {
			t.Fatalf("W=%d: bytes_copied_dispatch = %d on the lending path, want 0", workers, n)
		}
		if n := c.Total(obs.CtrChunkCopyFallbacks); n != 0 {
			t.Fatalf("W=%d: chunk_copy_fallbacks = %d on the lending path, want 0", workers, n)
		}
	}
}

// TestNonLendingSourceCopiedIntoSlabs pins Lend's adapter under the engine:
// for W ∈ {1, 2, 4} a source that does not lend is delivered in exact
// stream order with every edge exactly once, its edges are copied once
// (bytes_copied_dispatch = 8·m, one copy fallback per slab of at most
// BatchEdges edges) and nothing counts as lent. At W=2 the allocation count
// of a run does not grow with the number of batches: slabs and slab refs
// recycle.
func TestNonLendingSourceCopiedIntoSlabs(t *testing.T) {
	const k, batch = 13, 128
	for _, workers := range []int{1, 2, 4} {
		slabs := newSlabSource(997, 1000, 9)
		want := slabs.all()
		m := int64(len(want))
		ws := make([]shard.BatchPlacer, workers)
		for i := range ws {
			ws[i] = &orderPlacer{k: k}
		}
		o := obs.New(workers)
		c := o.Counters()
		var got []part.TaggedEdge
		err := shard.Run(edgesOnly{s: slabs}, ws, shard.Options{BatchEdges: batch, Obs: o}, func(edges []graph.Edge, parts []int32) {
			if len(edges) > batch {
				t.Fatalf("W=%d: batch of %d edges above the %d ceiling", workers, len(edges), batch)
			}
			for i := range edges {
				got = append(got, part.TaggedEdge{E: edges[i], P: int(parts[i])})
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(got)) != m {
			t.Fatalf("W=%d: delivered %d of %d edges", workers, len(got), m)
		}
		for i := range got {
			wantP := int((want[i].U + 3*want[i].V) % graph.V(k))
			if got[i].E != want[i] || got[i].P != wantP {
				t.Fatalf("W=%d: delivery %d = %v→%d, want %v→%d", workers, i, got[i].E, got[i].P, want[i], wantP)
			}
		}
		if n := c.Total(obs.CtrBytesCopiedDispatch); n != 8*m {
			t.Fatalf("W=%d: bytes_copied_dispatch = %d, want %d", workers, n, 8*m)
		}
		if n, want := c.Total(obs.CtrChunkCopyFallbacks), (m+batch-1)/batch; n != want {
			t.Fatalf("W=%d: chunk_copy_fallbacks = %d, want %d (one per slab)", workers, n, want)
		}
		if n := c.Total(obs.CtrChunksLent); n != 0 {
			t.Fatalf("W=%d: chunks_lent = %d for a non-lending source, want 0", workers, n)
		}
		for i := range slabs.released {
			if n := slabs.released[i].Load(); n != 0 {
				t.Fatalf("W=%d: slab %d of the hidden source released %d times", workers, i, n)
			}
		}
	}

	if check.Enabled {
		// Assertions box their arguments per batch (the collector's
		// sequence check, the slab refcount check): allocation behavior is
		// a release-build property, as for the hotalloc analyzer.
		return
	}
	allocs := func(m int) float64 {
		edges := make([]graph.Edge, m)
		for i := range edges {
			edges[i] = graph.Edge{U: graph.V(i % 613), V: graph.V((5 * i) % 617)}
		}
		src := edgesOnly{s: graph.NewMemGraph(617, edges)}
		ws := []shard.BatchPlacer{&orderPlacer{k: 3}, &orderPlacer{k: 3}}
		return testing.AllocsPerRun(5, func() {
			if err := shard.Run(src, ws, shard.Options{BatchEdges: 512}, func(edges []graph.Edge, parts []int32) {}); err != nil {
				t.Fatal(err)
			}
		})
	}
	// ~40 vs ~400 batches per run: a per-batch (or per-slab) allocation
	// would add hundreds; the pools allocate at most 2W+3 slabs either way.
	small, large := allocs(20_000), allocs(200_000)
	if large > small+16 {
		t.Fatalf("W=2 allocations grow with batches: %.0f for ~40 batches, %.0f for ~400", small, large)
	}
}

// TestLendingSizerSlicesSlabs pins sizer-driven slab slicing: a fixed sizer
// cuts every slab at its boundaries (delivered batch lengths), and a
// size-alternating sizer folds batch_resizes.
func TestLendingSizerSlicesSlabs(t *testing.T) {
	src := newSlabSource(101, 1000, 3)
	ws := []shard.BatchPlacer{&orderPlacer{k: 5}, &orderPlacer{k: 5}}
	var sizes []int
	err := shard.Run(src, ws, shard.Options{BatchEdges: 4096, Sizer: fixedSizer(100)},
		func(edges []graph.Edge, parts []int32) { sizes = append(sizes, len(edges)) })
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 30 {
		t.Fatalf("got %d batches, want 30", len(sizes))
	}
	for i, n := range sizes {
		if n != 100 {
			t.Fatalf("batch %d has %d edges, want 100", i, n)
		}
	}

	src = newSlabSource(101, 1000, 2)
	o := obs.New(2)
	alt := &alternatingSizer{a: 100, b: 200}
	err = shard.Run(src, ws, shard.Options{BatchEdges: 4096, Sizer: alt, Obs: o},
		func(edges []graph.Edge, parts []int32) {})
	if err != nil {
		t.Fatal(err)
	}
	if n := o.Counters().Total(obs.CtrBatchResizes); n == 0 {
		t.Fatal("alternating sizer folded no batch_resizes")
	}
}

// fixedSizer asks for the same batch size every time.
type fixedSizer int

func (f fixedSizer) NextBatch() int { return int(f) }

type alternatingSizer struct{ a, b, n int }

func (s *alternatingSizer) NextBatch() int {
	s.n++
	if s.n%2 == 0 {
		return s.a
	}
	return s.b
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

// TestRunOneReusesBatchBuffer is the W=1 allocation regression: the
// single-worker copy path must reuse one grow-only batch buffer for the
// whole run instead of allocating per batch, so allocations stay a small
// constant however many batches the stream spans.
func TestRunOneReusesBatchBuffer(t *testing.T) {
	edges := make([]graph.Edge, 200_000)
	for i := range edges {
		edges[i] = graph.Edge{U: graph.V(i % 613), V: graph.V((5 * i) % 617)}
	}
	src := edgesOnly{s: graph.NewMemGraph(617, edges)}
	w := []shard.BatchPlacer{&orderPlacer{k: 3}}
	allocs := testing.AllocsPerRun(5, func() {
		err := shard.Run(src, w, shard.Options{Workers: 1, BatchEdges: 512}, func(edges []graph.Edge, parts []int32) {})
		if err != nil {
			t.Fatal(err)
		}
	})
	// ~390 batches per run; a per-batch allocation would show up as
	// hundreds. The fixed cost is the batch buffer, the parts buffer and a
	// handful of closures.
	if allocs > 16 {
		t.Fatalf("W=1 run allocated %.0f times, want a small batch-count-independent constant", allocs)
	}
}
