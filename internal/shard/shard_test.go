package shard_test

// The shard test suite runs the concurrency layer hard enough for the race
// detector to bite (CI runs this package with -race -count=2): CAS storms on
// the atomic table, concurrent delta folding, the batch engine's ordered
// delivery, and the full parallel HDRF path on power-law stand-ins with
// W ∈ {2, 4, 8} — including the exactly-once sink guarantee and the quality
// pin against sequential HDRF.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"hep/internal/gen"
	"hep/internal/graph"
	"hep/internal/part"
	"hep/internal/parttest"
	"hep/internal/pstate"
	"hep/internal/shard"
	"hep/internal/stream"
)

// TestAtomicTableConcurrentAdds hammers Add from 8 goroutines over a bit set
// that crosses the dense/paged boundary and checks the frozen table is
// bit-for-bit what a sequential pstate.Table produces from the same set —
// including the exactly-once semantics of Add (the CAS winner count must
// equal the number of distinct bits).
func TestAtomicTableConcurrentAdds(t *testing.T) {
	const n, k, workers = 5000, 130, 8
	rng := rand.New(rand.NewSource(1))
	type bit struct {
		v graph.V
		p int
	}
	var bits []bit
	for i := 0; i < 40000; i++ {
		bits = append(bits, bit{v: graph.V(rng.Intn(n)), p: rng.Intn(k)})
	}

	at := shard.NewAtomicTable(n, k)
	var wg sync.WaitGroup
	var wins [workers]int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Every worker replays the full list: heavy same-bit contention.
			for _, b := range bits {
				if at.Add(b.v, b.p) {
					wins[w]++
				}
			}
		}(w)
	}
	wg.Wait()

	want := pstate.NewTable(n, k)
	distinct := int64(0)
	for _, b := range bits {
		if want.Add(b.v, b.p) {
			distinct++
		}
	}
	var total int64
	for _, w := range wins {
		total += w
	}
	if total != distinct {
		t.Fatalf("CAS winners %d != distinct bits %d (a bit was double-claimed or lost)", total, distinct)
	}
	got := at.Freeze()
	for v := 0; v < n; v++ {
		for wi := 0; wi < want.Words(); wi++ {
			if got.Word(graph.V(v), wi) != want.Word(graph.V(v), wi) {
				t.Fatalf("vertex %d word %d: got %x want %x", v, wi, got.Word(graph.V(v), wi), want.Word(graph.V(v), wi))
			}
		}
	}
	for p := 0; p < k; p++ {
		if got.VertexCount(p) != want.VertexCount(p) {
			t.Fatalf("partition %d: |V(p)| %d != %d", p, got.VertexCount(p), want.VertexCount(p))
		}
	}
	// First bits landing in different mask words of one vertex can leave
	// the running count low; the frozen table must hold the exact count.
	if got.Covered() != want.Covered() {
		t.Fatalf("covered %d after Freeze, want %d", got.Covered(), want.Covered())
	}
}

// TestFromTableFreezeRoundTrip transplants a warm sequential table (with
// materialized overflow pages) into atomic form and back, checking nothing
// is copied wrong and mask words read atomically match the original bits.
func TestFromTableFreezeRoundTrip(t *testing.T) {
	const n, k = 1000, 200
	rng := rand.New(rand.NewSource(2))
	seq := pstate.NewTable(n, k)
	type bit struct {
		v graph.V
		p int
	}
	var bits []bit
	for i := 0; i < 5000; i++ {
		b := bit{v: graph.V(rng.Intn(n)), p: rng.Intn(k)}
		seq.Add(b.v, b.p)
		bits = append(bits, b)
	}
	at := shard.FromTable(seq)
	for _, b := range bits {
		if !at.Has(b.v, b.p) {
			t.Fatalf("transplant lost bit (%d, %d)", b.v, b.p)
		}
	}
	// Mask words read through the atomic table match the sequential
	// table's after the round trip, paged and unpaged vertices alike.
	var got [][]uint64
	for v := range graph.V(n) {
		ws := make([]uint64, at.Words())
		for wi := range ws {
			ws[wi] = at.Word(v, wi)
		}
		got = append(got, ws)
	}
	back := at.Freeze()
	for v, ws := range got {
		for wi, w := range ws {
			if want := back.Word(graph.V(v), wi); w != want {
				t.Fatalf("vertex %d word %d: got %x want %x", v, wi, w, want)
			}
		}
	}
	for _, b := range bits {
		if !back.Has(b.v, b.p) {
			t.Fatalf("freeze lost bit (%d, %d)", b.v, b.p)
		}
	}
}

// TestShardedLoadsFold folds concurrent per-worker deltas and checks the
// global tracker ends exactly at the per-partition totals with truthful
// max/min bounds.
func TestShardedLoadsFold(t *testing.T) {
	const k, workers, rounds = 37, 4, 50
	loads := pstate.NewLoads(k)
	sl := shard.NewShardedLoads(loads, workers)
	want := make([]int64, k)
	var wantMu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			local := make([]int64, k)
			snap := make([]int64, k)
			for r := 0; r < rounds; r++ {
				for i := 0; i < 100; i++ {
					p := rng.Intn(k)
					sl.Inc(w, p)
					local[p]++
				}
				sl.Fold(w)
				max, min, argmin := sl.Snapshot(snap)
				if min > max {
					t.Errorf("snapshot bounds inverted: min %d > max %d", min, max)
				}
				if snap[argmin] != min {
					t.Errorf("argmin %d has load %d, tracked min %d", argmin, snap[argmin], min)
				}
			}
			wantMu.Lock()
			for p := range local {
				want[p] += local[p]
			}
			wantMu.Unlock()
		}(w)
	}
	wg.Wait()
	for p := 0; p < k; p++ {
		if loads.Counts()[p] != want[p] {
			t.Fatalf("partition %d: folded count %d != %d", p, loads.Counts()[p], want[p])
		}
	}
	var max, min int64 = loads.Counts()[0], loads.Counts()[0]
	for _, c := range loads.Counts() {
		if c > max {
			max = c
		}
		if c < min {
			min = c
		}
	}
	if loads.Max() != max || loads.Min() != min {
		t.Fatalf("tracked bounds (%d, %d) != scanned (%d, %d)", loads.Max(), loads.Min(), max, min)
	}
}

// orderPlacer records which goroutine placed each batch and tags every edge
// with a value derived from the edge itself, so delivery can be verified
// against the stream without caring about scheduling.
type orderPlacer struct{ k int }

func (o *orderPlacer) PlaceBatch(edges []graph.Edge, parts []int32) {
	for i := range edges {
		parts[i] = int32((edges[i].U + 3*edges[i].V) % graph.V(o.k))
	}
}

// TestEngineOrderedDelivery checks the deterministic replay guarantee: for
// W ∈ {1,2,4,8} and batch sizes that force heavy reordering, delivery is in
// exact stream order, every edge exactly once. The MemGraph source lends its
// slice as one slab, so batches alias it — the out-of-core fallback's path.
func TestEngineOrderedDelivery(t *testing.T) {
	const m, k = 50000, 13
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{U: graph.V(i % 977), V: graph.V((7 * i) % 1009)}
	}
	g := graph.NewMemGraph(1009, edges)
	for _, workers := range []int{1, 2, 4, 8} {
		for _, batch := range []int{64, 4096} {
			ws := make([]shard.BatchPlacer, workers)
			for i := range ws {
				ws[i] = &orderPlacer{k: k}
			}
			var got []part.TaggedEdge
			err := shard.Run(g, ws, shard.Options{BatchEdges: batch}, func(edges []graph.Edge, parts []int32) {
				for i := range edges {
					got = append(got, part.TaggedEdge{E: edges[i], P: int(parts[i])})
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != m {
				t.Fatalf("W=%d batch=%d: delivered %d of %d edges", workers, batch, len(got), m)
			}
			for i := range got {
				wantP := int((edges[i].U + 3*edges[i].V) % graph.V(k))
				if got[i].E != edges[i] || got[i].P != wantP {
					t.Fatalf("W=%d batch=%d: delivery %d = %v→%d, want %v→%d",
						workers, batch, i, got[i].E, got[i].P, edges[i], wantP)
				}
			}
		}
	}
}

// TestParallelHDRFExactlyOnce runs the full parallel pipeline on power-law
// stand-ins for W ∈ {2,4,8} with small batches (maximum interleaving) and
// asserts the exactly-once sink contract, replica consistency and internal
// result invariants — the guarantees concurrency must not cost.
func TestParallelHDRFExactlyOnce(t *testing.T) {
	for _, name := range []string{"OK", "TW"} {
		g := gen.MustDataset(name).Build(0.04)
		deg, m, err := graph.Degrees(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("%s/W=%d", name, workers), func(t *testing.T) {
				res := part.NewResult(g.NumVertices(), 32)
				col := &part.Collect{}
				res.Sink = col
				opts := shard.Options{Workers: workers, BatchEdges: 256}
				if err := stream.RunHDRFParallel(g, res, deg, stream.DefaultLambda, 1.05, m, opts); err != nil {
					t.Fatal(err)
				}
				if err := res.Validate(); err != nil {
					t.Fatal(err)
				}
				if err := parttest.CheckExactlyOnce(g, res, col); err != nil {
					t.Fatal(err)
				}
				if err := parttest.CheckReplicas(res, col); err != nil {
					t.Fatal(err)
				}
				// Delivery order is the stream order even under concurrency.
				i := 0
				var bad error
				err = g.Edges(func(u, v graph.V) bool {
					if col.Edges[i].E != (graph.Edge{U: u, V: v}) {
						bad = fmt.Errorf("sink delivery %d = %v, stream had (%d,%d)", i, col.Edges[i].E, u, v)
						return false
					}
					i++
					return true
				})
				if err != nil {
					t.Fatal(err)
				}
				if bad != nil {
					t.Fatal(bad)
				}
			})
		}
	}
}

// TestParallelHDRFQualityPin pins the bounded-staleness quality claim:
// parallel replication factor and balance stay within 2% of sequential HDRF
// at k ∈ {32, 128} on the OK and TW stand-ins.
func TestParallelHDRFQualityPin(t *testing.T) {
	for _, name := range []string{"OK", "TW"} {
		g := gen.MustDataset(name).Build(0.1)
		deg, m, err := graph.Degrees(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{32, 128} {
			seq := part.NewResult(g.NumVertices(), k)
			if err := stream.RunHDRFParallel(g, seq, deg, stream.DefaultLambda, 1.05, m, shard.Options{Workers: 1}); err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{4, 8} {
				par := part.NewResult(g.NumVertices(), k)
				opts := shard.Options{Workers: workers}
				if err := stream.RunHDRFParallel(g, par, deg, stream.DefaultLambda, 1.05, m, opts); err != nil {
					t.Fatal(err)
				}
				if par.M != seq.M {
					t.Fatalf("%s k=%d W=%d: parallel assigned %d edges, sequential %d", name, k, workers, par.M, seq.M)
				}
				srf, prf := seq.ReplicationFactor(), par.ReplicationFactor()
				if prf > srf*1.02 {
					t.Errorf("%s k=%d W=%d: parallel RF %.4f > sequential %.4f + 2%%", name, k, workers, prf, srf)
				}
				sb, pb := seq.Balance(), par.Balance()
				if pb > sb*1.02 {
					t.Errorf("%s k=%d W=%d: parallel balance %.4f > sequential %.4f + 2%%", name, k, workers, pb, sb)
				}
			}
		}
	}
}

// TestParallelInformedAndRestream covers the two other parallel passes: an
// informed pass over warm state and a re-streaming pass scored against a
// frozen prior table, both checked for exactly-once delivery and result
// validity.
func TestParallelInformedAndRestream(t *testing.T) {
	g := gen.MustDataset("OK").Build(0.05)
	deg, m, err := graph.Degrees(g)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	const k = 32
	opts := shard.Options{Workers: 4, BatchEdges: 512}

	// Informed: warm replica state survives the transplant and informs
	// parallel placements.
	res := part.NewResult(n, k)
	for v := 0; v < n; v++ {
		res.Warm(graph.V(v), v%k)
	}
	col := &part.Collect{}
	res.Sink = col
	if err := stream.RunHDRFParallel(g, res, deg, stream.DefaultLambda, 1.05, m, opts); err != nil {
		t.Fatal(err)
	}
	if err := parttest.CheckExactlyOnce(g, res, col); err != nil {
		t.Fatal(err)
	}

	// Re-streaming: affinity against a frozen prior result read through
	// per-worker readers.
	prior := part.NewResult(n, k)
	if err := stream.RunHDRFParallel(g, prior, deg, stream.DefaultLambda, 1.05, m, shard.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	next := part.NewResult(n, k)
	col2 := &part.Collect{}
	next.Sink = col2
	capacity := stream.Capacity(1.05, m, k)
	if err := stream.PlaceHDRF(g, next, prior.Reps, deg, stream.DefaultLambda, capacity, m, opts); err != nil {
		t.Fatal(err)
	}
	if err := next.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := parttest.CheckExactlyOnce(g, next, col2); err != nil {
		t.Fatal(err)
	}
}

// TestOptionsResolve pins the Workers resolution contract: 0 = GOMAXPROCS,
// explicit values taken literally.
func TestOptionsResolve(t *testing.T) {
	if got := (shard.Options{Workers: 3}).Resolve(); got != 3 {
		t.Fatalf("Resolve(3) = %d", got)
	}
	if got := (shard.Options{}).Resolve(); got < 1 {
		t.Fatalf("Resolve(0) = %d, want ≥ 1 (GOMAXPROCS)", got)
	}
}
