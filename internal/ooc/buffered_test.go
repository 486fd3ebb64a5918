package ooc

import (
	"testing"

	"hep/internal/gen"
	"hep/internal/graph"
	"hep/internal/part"
	"hep/internal/parttest"
	"hep/internal/stream"
)

// TestBufferedConformance runs the repository-wide validity checks (every
// edge exactly once, consistent replicas, balance bound) across graph
// families, buffer sizes spanning "everything in one batch" down to
// degenerate single-edge batches, and several k.
func TestBufferedConformance(t *testing.T) {
	graphs := map[string]*graph.MemGraph{
		"ba":        gen.BarabasiAlbert(800, 5, 101),
		"community": gen.CommunityPowerLaw(1200, 20, 6, 0.2, 102),
		"star":      gen.Star(200),
		"tiny":      graph.NewMemGraph(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}),
	}
	for _, bufEdges := range []int{1, 7, 256, 1 << 20} {
		for gname, g := range graphs {
			for _, k := range []int{2, 5, 16} {
				a := &Buffered{BufferEdges: bufEdges}
				if _, err := parttest.RunAndCheck(a, g, k, 1.05, 2); err != nil {
					t.Errorf("buffer=%d %s k=%d: %v", bufEdges, gname, k, err)
				}
			}
		}
	}
}

// TestBufferedBeatsHDRFOnPowerLawGraphs is the headline quality guarantee
// of the out-of-core engine: at k=32 on power-law graphs, batch-local
// neighborhood expansion seeded by the global replica state must beat plain
// HDRF streaming (which places every edge in isolation).
func TestBufferedBeatsHDRFOnPowerLawGraphs(t *testing.T) {
	for _, name := range []string{"OK", "TW"} {
		g := gen.MustDataset(name).Build(0.25)
		k := 32

		buffered := &Buffered{BufferEdges: 1 << 15}
		bres, err := buffered.Partition(g, k)
		if err != nil {
			t.Fatalf("%s buffered: %v", name, err)
		}
		hres, err := (&stream.HDRF{}).Partition(g, k)
		if err != nil {
			t.Fatalf("%s hdrf: %v", name, err)
		}
		brf, hrf := bres.ReplicationFactor(), hres.ReplicationFactor()
		t.Logf("%s k=%d: buffered RF %.3f vs HDRF RF %.3f (batches=%d expansion=%d fallback=%d)",
			name, k, brf, hrf, buffered.LastStats.Batches,
			buffered.LastStats.ExpansionEdges, buffered.LastStats.FallbackEdges)
		if buffered.LastStats.Batches < 2 {
			t.Fatalf("%s: want multiple batches, got %d", name, buffered.LastStats.Batches)
		}
		if brf >= hrf {
			t.Errorf("%s k=%d: buffered RF %.3f not better than HDRF %.3f", name, k, brf, hrf)
		}
	}
}

// TestBufferedParallelFallback drives the concurrent per-edge fallback path
// directly at the batch-state level (in natural runs the expansion's region
// quotas cover whole batches, so the fallback is an escape hatch): a full
// batch of leftovers is gathered and placed through the sharded engine, and
// must satisfy the same contracts as one worker — every edge exactly once,
// sink delivery in batch order, valid result state, stats counted — with
// replication factor within 2% of the one-worker fallback, which itself
// matches the partition-major reference edge for edge.
func TestBufferedParallelFallback(t *testing.T) {
	g := gen.MustDataset("OK").Build(0.05)
	deg, m, err := graph.Degrees(g)
	if err != nil {
		t.Fatal(err)
	}
	const k = 32
	capacity := int64(1.05*float64(m)/float64(k)) + 1

	run := func(workers int) (*part.Result, *part.Collect, *Buffered) {
		b := &Buffered{Workers: workers, ParallelFallbackMin: 1}
		st := newBatchState(len(g.E), k)
		st.batch = append(st.batch[:0], g.E...)
		res := part.NewResult(g.NumVertices(), k)
		col := &part.Collect{}
		res.Sink = col
		if err := b.fallback(st, res, deg, stream.DefaultLambda, capacity); err != nil {
			t.Fatal(err)
		}
		for i := range st.batch {
			if !st.assigned[i] {
				t.Fatalf("W=%d: batch edge %d left unassigned", workers, i)
			}
		}
		return res, col, b
	}

	seqRes, seqCol, _ := run(1)
	// One worker places the leftovers exactly like the per-edge informed
	// HDRF loop: pin it to the partition-major reference, edge by edge.
	ref := parttest.NewRefState(g.NumVertices(), k)
	for i, e := range g.E {
		p := parttest.RefHDRFArgmax(ref, ref, e.U, e.V, deg[e.U], deg[e.V], stream.DefaultLambda, capacity)
		if p < 0 {
			p = parttest.RefArgmin(ref.Counts)
		}
		ref.Assign(e.U, e.V, p)
		if got := seqCol.Edges[i]; got.E != e || got.P != p {
			t.Fatalf("W=1 fallback assignment %d = %v→%d, reference %v→%d", i, got.E, got.P, e, p)
		}
	}
	parRes, col, b := run(4)
	if b.LastStats.FallbackEdges != m {
		t.Fatalf("fallback stats counted %d of %d edges", b.LastStats.FallbackEdges, m)
	}
	if err := parRes.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := parttest.CheckExactlyOnce(g, parRes, col); err != nil {
		t.Fatal(err)
	}
	if err := parttest.CheckReplicas(parRes, col); err != nil {
		t.Fatal(err)
	}
	// Sink delivery follows batch order even under concurrency.
	for i := range col.Edges {
		if col.Edges[i].E != g.E[i] {
			t.Fatalf("sink delivery %d = %v, batch had %v", i, col.Edges[i].E, g.E[i])
		}
	}
	if rf, srf := parRes.ReplicationFactor(), seqRes.ReplicationFactor(); rf > srf*1.02 {
		t.Errorf("parallel-fallback RF %.4f > sequential %.4f + 2%%", rf, srf)
	}
}

// TestBufferedBudget partitions an on-disk graph through the chunked stream
// and asserts the tracked peak buffer allocation never exceeds the
// configured byte budget — the bounded-memory contract of the engine.
func TestBufferedBudget(t *testing.T) {
	g := gen.MustDataset("OK").Build(0.25)
	path := writeGraphFile(t, g)
	src, err := Open(path, 0, 1024)
	if err != nil {
		t.Fatal(err)
	}

	const budget = 1 << 21 // 2 MiB of buffer state
	bufEdges := BufferForBudget(budget)
	if bufEdges <= 0 {
		t.Fatalf("budget %d yields no buffer", budget)
	}
	if int64(bufEdges) >= g.NumEdges() {
		t.Fatalf("test wants multiple batches: buffer %d ≥ m %d", bufEdges, g.NumEdges())
	}
	a := &Buffered{BufferEdges: bufEdges}
	res, err := a.Partition(src, 32)
	if err != nil {
		t.Fatal(err)
	}
	if res.M != g.NumEdges() {
		t.Fatalf("assigned %d of %d edges", res.M, g.NumEdges())
	}
	if a.LastStats.PeakBufferBytes <= 0 {
		t.Fatal("peak buffer bytes not tracked")
	}
	if a.LastStats.PeakBufferBytes > budget {
		t.Fatalf("peak buffer %d bytes exceeds budget %d", a.LastStats.PeakBufferBytes, budget)
	}
	if a.LastStats.Batches < 2 {
		t.Fatalf("want multiple batches, got %d", a.LastStats.Batches)
	}
}

// TestBufferedFromFileDiscoversVertexCount exercises the full on-disk path:
// vertex count discovery at open, chunked degree pass, batched partitioning.
func TestBufferedFromFileDiscoversVertexCount(t *testing.T) {
	g := gen.CommunityPowerLaw(3000, 30, 8, 0.2, 55)
	src, err := Open(writeGraphFile(t, g), 0, 512)
	if err != nil {
		t.Fatal(err)
	}
	if src.NumVertices() != g.NumVertices() {
		t.Fatalf("discovered n = %d, want %d", src.NumVertices(), g.NumVertices())
	}
	a := &Buffered{BufferEdges: 2048}
	res, err := a.Partition(src, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.M != g.NumEdges() {
		t.Fatalf("assigned %d of %d edges", res.M, g.NumEdges())
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestBufferForBudget pins the budget→buffer relation.
func TestBufferForBudget(t *testing.T) {
	if b := BufferForBudget(BytesPerBufferedEdge * 100); b != 100 {
		t.Fatalf("BufferForBudget = %d, want 100", b)
	}
	if b := BufferForBudget(10); b != 0 {
		t.Fatalf("tiny budget: %d, want 0", b)
	}
}
