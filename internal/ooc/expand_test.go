package ooc

import (
	"fmt"
	"math"
	"testing"

	"hep/internal/gen"
	"hep/internal/graph"
	"hep/internal/part"
	"hep/internal/parttest"
	"hep/internal/pstate"
	"hep/internal/stream"
)

// runCollected runs a Buffered configuration with a collecting sink.
func runCollected(t *testing.T, b *Buffered, g graph.EdgeStream, k int) (*part.Result, *part.Collect) {
	t.Helper()
	col := &part.Collect{}
	b.Sink = col
	res, err := b.Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	b.Sink = nil
	return res, col
}

// sameSequence fails the test unless got and want delivered the same
// assignments, edge and partition, in the same order.
func sameSequence(t *testing.T, what string, got, want *part.Collect) {
	t.Helper()
	if len(got.Edges) != len(want.Edges) {
		t.Fatalf("%s: %d vs %d assignments", what, len(got.Edges), len(want.Edges))
	}
	for i := range got.Edges {
		if got.Edges[i] != want.Edges[i] {
			t.Fatalf("%s: assignment %d diverged: %v vs %v", what, i, got.Edges[i], want.Edges[i])
		}
	}
}

// TestWarmStartBitIdenticalToLegacyScan pins the candidate-iteration warm
// start bit-for-bit against the retired k-probe scan: on every stand-in the
// full assignment sequence — edge order and chosen partitions, which
// subsumes the region seeds — must be identical, across buffer sizes that
// force warm-started multi-batch runs.
func TestWarmStartBitIdenticalToLegacyScan(t *testing.T) {
	for _, name := range []string{"OK", "TW", "LJ"} {
		g := gen.MustDataset(name).Build(0.1)
		for _, buf := range []int{1 << 13, 1 << 15} {
			for _, k := range []int{32, 128} {
				bNew := &Buffered{BufferEdges: buf}
				_, colNew := runCollected(t, bNew, g, k)
				bOld := &Buffered{BufferEdges: buf, legacyWarmScan: true}
				_, colOld := runCollected(t, bOld, g, k)

				sameSequence(t, fmt.Sprintf("%s buf=%d k=%d: bucket vs scan", name, buf, k), colNew, colOld)
				if bNew.LastStats.Batches < 2 {
					t.Fatalf("%s buf=%d: want a multi-batch run, got %d batches", name, buf, bNew.LastStats.Batches)
				}
			}
		}
	}
}

// TestWarmStartProbeRegression pins that the k-probe warm scan is actually
// gone: the bucket build iterates each batch vertex's mask once per batch
// (WarmMaskPasses is independent of k), and the remaining per-region probe
// paths — bucket-pool overflow and repeat-region rescans — stay unused on
// the stand-ins, where the retired path would have paid k probes per batch
// vertex.
func TestWarmStartProbeRegression(t *testing.T) {
	for _, name := range []string{"OK", "TW", "LJ"} {
		g := gen.MustDataset(name).Build(0.1)
		var passes [2]int64
		for i, k := range []int{32, 128} {
			b := &Buffered{BufferEdges: 1 << 14}
			if _, err := b.Partition(g, k); err != nil {
				t.Fatal(err)
			}
			st := b.LastStats
			if st.WarmMaskPasses <= 0 {
				t.Fatalf("%s k=%d: no mask passes recorded", name, k)
			}
			if st.WarmScanProbes != 0 {
				t.Errorf("%s k=%d: %d per-region warm probes (want 0: pool overflow or rescans)", name, k, st.WarmScanProbes)
			}
			if st.WarmRescans != 0 {
				t.Errorf("%s k=%d: %d repeat-region rescans", name, k, st.WarmRescans)
			}
			// The retired scan would have cost Regions × active vertices —
			// k times the bucket build. The whole warm start must stay at
			// one mask iteration per batch vertex.
			if st.Regions < int64(k) {
				t.Fatalf("%s k=%d: only %d regions grown", name, k, st.Regions)
			}
			passes[i] = st.WarmMaskPasses
		}
		if passes[0] != passes[1] {
			t.Errorf("%s: WarmMaskPasses depends on k: %d at k=32, %d at k=128", name, passes[0], passes[1])
		}
	}
}

// TestRepeatRegionWarmRescan pins the repeat-region warm start: when the
// sweep grows a second region into a partition within one batch (forced
// here by saturating partitions 2 and 3 of k=4, so the four-region sweep
// alternates between partitions 0 and 1), that region rescans the active
// list against the live replica table, because the batch-start bucket index
// predates every replica the partition's first region placed. The rescan is
// the retired scan itself, so the run must deliver exactly the sink
// sequence of a run that scans for every region (legacyWarmScan).
func TestRepeatRegionWarmRescan(t *testing.T) {
	g := gen.MustDataset("OK").Build(0.05)
	n := g.NumVertices()
	deg, m, err := graph.Degrees(g)
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	capacity := m // loose bound: the two live partitions never clamp a quota
	// Two synthetic vertices outside the batch saturate partitions 2 and 3
	// before the batch runs, leaving 0 and 1 as the only admissible targets.
	preload := make([]part.TaggedEdge, 0, 2*capacity)
	for i := int64(0); i < capacity; i++ {
		e := graph.Edge{U: graph.V(n), V: graph.V(n + 1)}
		preload = append(preload, part.TaggedEdge{E: e, P: 2}, part.TaggedEdge{E: e, P: 3})
	}

	run := func(legacy bool) (*part.Result, *part.Collect, BufferedStats) {
		b := &Buffered{legacyWarmScan: legacy}
		st := newBatchState(len(g.E), k)
		st.batch = append(st.batch[:0], g.E...)
		res := part.NewResult(n+2, k)
		col := &part.Collect{}
		res.Sink = col
		for _, te := range preload {
			res.Assign(te.E.U, te.E.V, te.P)
		}
		localID := make([]int32, n+2)
		for i := range localID {
			localID[i] = -1
		}
		if err := b.processBatch(st, localID, res, deg, 1.1, capacity); err != nil {
			t.Fatal(err)
		}
		return res, col, b.LastStats
	}

	res, col, st := run(false)
	if st.WarmRescans == 0 {
		t.Fatal("forcing failed: no repeat region rescanned the replica table")
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every batch edge exactly once, on top of the synthetic pre-load.
	all := append([]graph.Edge(nil), g.E...)
	for _, te := range preload {
		all = append(all, te.E)
	}
	if err := parttest.CheckExactlyOnce(graph.NewMemGraph(n+2, all), res, col); err != nil {
		t.Fatal(err)
	}
	_, colScan, _ := run(true)
	sameSequence(t, "rescan vs legacy scan", col, colScan)
}

// TestWarmStartOverflowMatchesLegacyScan pins the order of the bucket-pool
// overflow candidates, which the stand-in runs never produce
// (TestWarmStartProbeRegression pins WarmScanProbes at zero there). Over
// consecutive batches of a stand-in, with a bucket pool far too small for
// the batches' replicas, most warm-start candidates come from overflow
// probes, and the run must deliver exactly the sink sequence of a run that
// scans for every region (legacyWarmScan). The position mark must read all
// zero after every batch.
func TestWarmStartOverflowMatchesLegacyScan(t *testing.T) {
	g := gen.MustDataset("OK").Build(0.05)
	n := g.NumVertices()
	deg, m, err := graph.Degrees(g)
	if err != nil {
		t.Fatal(err)
	}
	const k, bufEdges = 32, 1 << 11
	capacity := int64(math.Ceil(1.05 * float64(m) / k))

	run := func(legacy bool) (*part.Collect, BufferedStats) {
		b := &Buffered{legacyWarmScan: legacy}
		st := newBatchState(bufEdges, k)
		maxV := 2 * bufEdges
		st.buckets = pstate.NewBuckets(k, maxV/16, maxV)
		res := part.NewResult(n, k)
		col := &part.Collect{}
		res.Sink = col
		localID := make([]int32, n)
		for i := range localID {
			localID[i] = -1
		}
		spilled := false
		for lo := 0; lo < len(g.E); lo += bufEdges {
			st.batch = append(st.batch[:0], g.E[lo:min(lo+bufEdges, len(g.E))]...)
			if err := b.processBatch(st, localID, res, deg, stream.DefaultLambda, capacity); err != nil {
				t.Fatal(err)
			}
			spilled = spilled || len(st.buckets.Overflow()) > 0
			for i, c := range st.ex.mark {
				if c != 0 {
					t.Fatalf("legacy=%v batch at edge %d: mark byte %d reads %#x after the batch", legacy, lo, i, c)
				}
			}
		}
		if !spilled {
			t.Fatalf("legacy=%v: no batch spilled vertices to the overflow list", legacy)
		}
		if err := parttest.CheckExactlyOnce(g, res, col); err != nil {
			t.Fatal(err)
		}
		return col, b.LastStats
	}

	col, st := run(false)
	// With no repeat region, every per-region probe is an overflow probe.
	if st.WarmScanProbes == 0 || st.WarmRescans != 0 {
		t.Fatalf("want overflow probes and no rescans: %d probes, %d rescans", st.WarmScanProbes, st.WarmRescans)
	}
	colScan, _ := run(true)
	sameSequence(t, "overflow candidates vs legacy scan", col, colScan)
}

// TestBufferedWorkersMatchOneWorker pins the single expansion path: regions
// grow sequentially at every worker count and only the fallback fans out,
// and only past its floor. A run whose fallback stays under that floor must
// therefore deliver exactly the W=1 sink sequence at W ∈ {2, 4}.
func TestBufferedWorkersMatchOneWorker(t *testing.T) {
	for _, name := range []string{"OK", "TW", "LJ"} {
		g := gen.MustDataset(name).Build(0.1)
		for _, k := range []int{32, 128} {
			one := &Buffered{BufferEdges: 1 << 14}
			_, want := runCollected(t, one, g, k)
			if fb := one.LastStats.FallbackEdges; fb >= int64(parallelFallbackMin) {
				t.Fatalf("%s k=%d: %d fallback edges reach the fan-out floor %d", name, k, fb, parallelFallbackMin)
			}
			for _, workers := range []int{2, 4} {
				_, got := runCollected(t, &Buffered{BufferEdges: 1 << 14, Workers: workers}, g, k)
				sameSequence(t, fmt.Sprintf("%s k=%d W=%d vs W=1", name, k, workers), got, want)
			}
		}
	}
}

// TestParallelExpansionExactlyOnce runs Buffered at W ∈ {2, 4, 8} on the OK
// and TW stand-ins: every edge must be assigned exactly once, replica state
// must stay consistent with the sink, and expansion, sequential at every W,
// must place edges. (Expansion is not concurrent; the name predates that.)
func TestParallelExpansionExactlyOnce(t *testing.T) {
	for _, name := range []string{"OK", "TW"} {
		g := gen.MustDataset(name).Build(0.1)
		for _, workers := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("%s/W=%d", name, workers), func(t *testing.T) {
				b := &Buffered{BufferEdges: 1 << 14, Workers: workers}
				res, col := runCollected(t, b, g, 32)
				if err := res.Validate(); err != nil {
					t.Fatal(err)
				}
				if err := parttest.CheckExactlyOnce(g, res, col); err != nil {
					t.Fatal(err)
				}
				if err := parttest.CheckReplicas(res, col); err != nil {
					t.Fatal(err)
				}
				if b.LastStats.ExpansionEdges == 0 {
					t.Fatal("no edges placed by expansion")
				}
			})
		}
	}
}

// TestBufferedTinyBatches drives W=4 runs, with the fallback allowed to fan
// out at any size, through degenerate shapes — batches smaller than the
// worker count, k exceeding the batch, single-edge buffers — where the
// region sweep's edge cases trigger, and checks the balance bound.
func TestBufferedTinyBatches(t *testing.T) {
	fanOutAlways(t)
	graphs := map[string]*graph.MemGraph{
		"ba":   gen.BarabasiAlbert(600, 4, 7),
		"star": gen.Star(64),
		"tiny": graph.NewMemGraph(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}),
	}
	for gname, g := range graphs {
		for _, buf := range []int{1, 7, 128} {
			for _, k := range []int{2, 5, 16} {
				b := &Buffered{BufferEdges: buf, Workers: 4}
				if _, err := parttest.RunAndCheck(b, g, k, 1.05, 2); err != nil {
					t.Errorf("%s buf=%d k=%d: %v", gname, buf, k, err)
				}
			}
		}
	}
}

// TestBufferedWorkersBudget pins the memory contract at W > 1: with the
// buffer sized by BufferForBudget — the same buffer W=1 gets — and the
// fallback allowed to fan out over four workers at any size, the tracked
// peak batch-local allocation stays within the byte budget.
func TestBufferedWorkersBudget(t *testing.T) {
	fanOutAlways(t)
	g := gen.MustDataset("OK").Build(0.25)
	const budget = 1 << 21
	bufEdges := BufferForBudget(budget)
	if bufEdges <= 0 || int64(bufEdges) >= g.NumEdges() {
		t.Fatalf("bad test sizing: buffer %d of %d edges", bufEdges, g.NumEdges())
	}
	b := &Buffered{BufferEdges: bufEdges, Workers: 4}
	res, err := b.Partition(g, 32)
	if err != nil {
		t.Fatal(err)
	}
	if res.M != g.NumEdges() {
		t.Fatalf("assigned %d of %d edges", res.M, g.NumEdges())
	}
	if b.LastStats.Batches < 2 {
		t.Fatalf("want multiple batches, got %d", b.LastStats.Batches)
	}
	if b.LastStats.PeakBufferBytes > budget {
		t.Fatalf("peak buffer %d exceeds budget %d", b.LastStats.PeakBufferBytes, budget)
	}
}

// TestBudgetBoundSmallBufferLargeK pins the documented PeakBufferBytes
// bound where the per-edge slack is thinnest: buffers of 1 to 64 edges, k up
// to 256 and a tight α = 1.0 that sends leftovers to the fallback, whose
// gather buffer is then allocated. Every run, and the full batch state of
// every buffer size with that gather buffer allocated (no run below eight
// edges reaches the fallback), must stay within BytesPerBufferedEdge per
// buffered edge: the bucket heads and region flags are fixed resident
// baseline, not buffer-scaled state, and the byte-granular position mark,
// ⌈2B/8⌉ bytes, fits the one byte of slack per edge.
func TestBudgetBoundSmallBufferLargeK(t *testing.T) {
	graphs := map[string]*graph.MemGraph{
		"ba":   gen.BarabasiAlbert(600, 4, 7),
		"star": gen.Star(64),
	}
	bufs := []int{31, 33, 64}
	for buf := 1; buf <= 16; buf++ {
		bufs = append(bufs, buf)
	}
	for _, buf := range bufs {
		st := newBatchState(buf, 256)
		st.fbEdges = make([]graph.Edge, 0, cap(st.batch)) // as the first fallback allocates it
		if bound := int64(buf) * BytesPerBufferedEdge; st.bytes() > bound {
			t.Errorf("buf=%d: worst-case batch state %d B exceeds documented bound %d", buf, st.bytes(), bound)
		}
	}
	fellBack := false
	for gname, g := range graphs {
		for _, buf := range bufs {
			for _, k := range []int{1, 2, 5, 16, 256} {
				for _, alpha := range []float64{1.0, 1.05} {
					b := &Buffered{BufferEdges: buf, Alpha: alpha}
					res, err := b.Partition(g, k)
					if err != nil {
						t.Fatal(err)
					}
					if res.M != g.NumEdges() {
						t.Fatalf("%s buf=%d k=%d α=%.2f: assigned %d of %d edges", gname, buf, k, alpha, res.M, g.NumEdges())
					}
					if bound := int64(buf) * BytesPerBufferedEdge; b.LastStats.PeakBufferBytes > bound {
						t.Errorf("%s buf=%d k=%d α=%.2f: peak buffer %d exceeds documented bound %d",
							gname, buf, k, alpha, b.LastStats.PeakBufferBytes, bound)
					}
					if buf <= 16 && b.LastStats.FallbackEdges > 0 {
						fellBack = true
					}
				}
			}
		}
	}
	if !fellBack {
		t.Fatal("no case with a buffer of at most 16 edges ran the fallback, so its gather buffer was never charged")
	}
}

// TestBufferedLowDegreeBatch is the seed-scan linearity regression: a
// matching-like batch (every vertex degree 1) empties the expander heap
// after every placed edge, so each edge costs one seed choice. If a seed
// choice ever stops being bounded by seedScanLimit (exhausted vertices
// must leave the active list), this test degenerates from linear to
// quadratic in the batch size and times out instead of finishing in well
// under a second.
func TestBufferedLowDegreeBatch(t *testing.T) {
	const m = 1 << 17
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{U: graph.V(2 * i), V: graph.V(2*i + 1)}
	}
	g := graph.NewMemGraph(2*m, edges)
	b := &Buffered{BufferEdges: m, Workers: 2}
	res, err := b.Partition(g, 32)
	if err != nil {
		t.Fatal(err)
	}
	if res.M != int64(m) {
		t.Fatalf("assigned %d of %d edges", res.M, m)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
}
