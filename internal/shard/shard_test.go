package shard_test

// The shard test suite pins the batch loop (Run: batches of
// DefaultBatchEdges delivered in stream order) and the HDRF-family passes
// built on it at Workers 2, 4 and 8, which they ignore: every edge is
// placed exactly once and the result is the one-worker result.

import (
	"fmt"
	"testing"

	"hep/internal/gen"
	"hep/internal/graph"
	"hep/internal/part"
	"hep/internal/parttest"
	"hep/internal/shard"
	"hep/internal/stream"
)

// orderPlacer tags every edge with a value derived from the edge itself, so
// delivery can be verified against the stream.
type orderPlacer struct{ k int }

func (o *orderPlacer) PlaceBatch(edges []graph.Edge, parts []int32) error {
	for i := range edges {
		parts[i] = int32((edges[i].U + 3*edges[i].V) % graph.V(o.k))
	}
	return nil
}

// TestEngineOrderedDelivery checks Run's batching and delivery: the
// MemGraph source lends its slice as one slab, Run cuts it into batches of
// DefaultBatchEdges (the last one partial) and delivers every edge exactly
// once, in stream order, with the placer's partition.
func TestEngineOrderedDelivery(t *testing.T) {
	const m, k = 50000, 13
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{U: graph.V(i % 977), V: graph.V((7 * i) % 1009)}
	}
	g := graph.NewMemGraph(1009, edges)
	var got []part.TaggedEdge
	var sizes []int
	err := shard.Run(g, &orderPlacer{k: k}, nil, func(edges []graph.Edge, parts []int32) {
		sizes = append(sizes, len(edges))
		for i := range edges {
			got = append(got, part.TaggedEdge{E: edges[i], P: int(parts[i])})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != m {
		t.Fatalf("delivered %d of %d edges", len(got), m)
	}
	for i := range got {
		wantP := int((edges[i].U + 3*edges[i].V) % graph.V(k))
		if got[i].E != edges[i] || got[i].P != wantP {
			t.Fatalf("delivery %d = %v→%d, want %v→%d", i, got[i].E, got[i].P, edges[i], wantP)
		}
	}
	for i, n := range sizes {
		want := shard.DefaultBatchEdges
		if i == len(sizes)-1 {
			want = m - i*shard.DefaultBatchEdges
		}
		if n != want {
			t.Fatalf("batch %d has %d edges, want %d", i, n, want)
		}
	}
}

// sameSink fails unless two sink sequences are identical.
func sameSink(t *testing.T, what string, got, want []part.TaggedEdge) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d assignments, one worker %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: assignment %d is %v, one worker %v", what, i, got[i], want[i])
		}
	}
}

// hdrfSink runs RunHDRFParallel over g with opts and returns the result and
// its sink sequence.
func hdrfSink(t *testing.T, g graph.EdgeStream, res *part.Result, deg []int32, m int64, opts shard.Options) []part.TaggedEdge {
	t.Helper()
	col := &part.Collect{}
	res.Sink = col
	if err := stream.RunHDRFParallel(g, res, deg, stream.DefaultLambda, 1.05, m, opts); err != nil {
		t.Fatal(err)
	}
	return col.Edges
}

// TestParallelHDRFExactlyOnce runs RunHDRFParallel on power-law stand-ins
// at Workers 2, 4 and 8 and asserts the exactly-once sink contract, replica
// consistency, delivery in stream order and a sink sequence identical to
// the one-worker run's.
func TestParallelHDRFExactlyOnce(t *testing.T) {
	for _, name := range []string{"OK", "TW"} {
		g := gen.MustDataset(name).Build(0.04)
		deg, m, err := graph.Degrees(g)
		if err != nil {
			t.Fatal(err)
		}
		want := hdrfSink(t, g, part.NewResult(g.NumVertices(), 32), deg, m, shard.Options{Workers: 1})
		for _, workers := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("%s/W=%d", name, workers), func(t *testing.T) {
				res := part.NewResult(g.NumVertices(), 32)
				got := hdrfSink(t, g, res, deg, m, shard.Options{Workers: workers})
				if err := res.Validate(); err != nil {
					t.Fatal(err)
				}
				col := &part.Collect{Edges: got}
				if err := parttest.CheckExactlyOnce(g, res, col); err != nil {
					t.Fatal(err)
				}
				if err := parttest.CheckReplicas(res, col); err != nil {
					t.Fatal(err)
				}
				for i := range got {
					if got[i].E != g.E[i] {
						t.Fatalf("sink delivery %d = %v, stream had %v", i, got[i].E, g.E[i])
					}
				}
				sameSink(t, fmt.Sprintf("%s W=%d", name, workers), got, want)
			})
		}
	}
}

// TestParallelHDRFQualityPin pins quality at Workers 4 and 8: replication
// factor and balance equal the one-worker run's at k ∈ {32, 128} on the OK
// and TW stand-ins.
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
				if err := stream.RunHDRFParallel(g, par, deg, stream.DefaultLambda, 1.05, m, shard.Options{Workers: workers}); err != nil {
					t.Fatal(err)
				}
				if par.M != seq.M {
					t.Fatalf("%s k=%d W=%d: assigned %d edges, one worker %d", name, k, workers, par.M, seq.M)
				}
				if prf, srf := par.ReplicationFactor(), seq.ReplicationFactor(); prf != srf {
					t.Errorf("%s k=%d W=%d: RF %.6f, one worker %.6f", name, k, workers, prf, srf)
				}
				if pb, sb := par.Balance(), seq.Balance(); pb != sb {
					t.Errorf("%s k=%d W=%d: balance %.6f, one worker %.6f", name, k, workers, pb, sb)
				}
			}
		}
	}
}

// TestParallelInformedAndRestream covers the two other HDRF-family passes:
// an informed pass over warm state at Workers 4, whose sink sequence must
// equal the one-worker pass's, and a re-streaming pass scored against a
// frozen prior table. Both are checked for exactly-once delivery.
func TestParallelInformedAndRestream(t *testing.T) {
	g := gen.MustDataset("OK").Build(0.05)
	deg, m, err := graph.Degrees(g)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	const k = 32

	// Informed: warm replica state informs every placement.
	warm := func() *part.Result {
		res := part.NewResult(n, k)
		for v := 0; v < n; v++ {
			res.Warm(graph.V(v), v%k)
		}
		return res
	}
	want := hdrfSink(t, g, warm(), deg, m, shard.Options{Workers: 1})
	res := warm()
	got := hdrfSink(t, g, res, deg, m, shard.Options{Workers: 4})
	if err := parttest.CheckExactlyOnce(g, res, &part.Collect{Edges: got}); err != nil {
		t.Fatal(err)
	}
	sameSink(t, "informed", got, want)

	// Re-streaming: affinity against a frozen prior result.
	prior := part.NewResult(n, k)
	if err := stream.RunHDRFParallel(g, prior, deg, stream.DefaultLambda, 1.05, m, shard.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	next := part.NewResult(n, k)
	col := &part.Collect{}
	next.Sink = col
	if err := stream.PlaceHDRF(g, next, prior.Reps, deg, stream.DefaultLambda, 1.05, m, nil); err != nil {
		t.Fatal(err)
	}
	if err := next.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := parttest.CheckExactlyOnce(g, next, col); err != nil {
		t.Fatal(err)
	}
}

// TestFixedBatch pins the m/(50·W) clamp when m is known and the
// DefaultBatchEdges ceiling — not the floor — when it is not.
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
