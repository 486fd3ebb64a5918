package ooc

import (
	"errors"
	"math"
	"testing"

	"hep/internal/gen"
	"hep/internal/graph"
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
		t.Logf("%s k=%d: buffered RF %.3f vs HDRF RF %.3f (batches=%d regions=%d)",
			name, k, brf, hrf, buffered.LastStats.Batches, buffered.LastStats.Regions)
		if buffered.LastStats.Batches < 2 {
			t.Fatalf("%s: want multiple batches, got %d", name, buffered.LastStats.Batches)
		}
		if brf >= hrf {
			t.Errorf("%s k=%d: buffered RF %.3f not better than HDRF %.3f", name, k, brf, hrf)
		}
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
// vertex count discovery at open, Buffered's chunked discovery scan, batched
// partitioning.
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

// TestBufferedAlphaOutOfRange pins the α values no caller validates: +Inf
// caps the capacity at m, so one partition may hold every edge, and NaN
// takes the default 1.05 like any α below 1. Both must place every edge
// exactly once.
func TestBufferedAlphaOutOfRange(t *testing.T) {
	g := gen.BarabasiAlbert(600, 4, 7)
	const k = 5
	for _, alpha := range []float64{math.Inf(1), math.NaN()} {
		res, col := runCollected(t, &Buffered{BufferEdges: 64, Alpha: alpha}, g, k)
		if err := parttest.CheckExactlyOnce(g, res, col); err != nil {
			t.Fatalf("α=%v: %v", alpha, err)
		}
		if c := int64(math.Ceil(1.05 * float64(g.NumEdges()) / k)); math.IsNaN(alpha) && res.MaxLoad() > c {
			t.Errorf("α=NaN: max load %d above the default capacity %d", res.MaxLoad(), c)
		}
	}
}

// passStream is a user stream whose passes disagree: the first pass yields
// first and every later pass yields later.
type passStream struct {
	first, later []graph.Edge
	passes       int
}

func (s *passStream) NumVertices() int { return 0 }
func (s *passStream) NumEdges() int64  { return 0 }

func (s *passStream) Edges(yield func(u, v graph.V) bool) error {
	edges := s.later
	if s.passes == 0 {
		edges = s.first
	}
	s.passes++
	for _, e := range edges {
		if !yield(e.U, e.V) {
			return nil
		}
	}
	return nil
}

// TestBufferedPassesDisagree pins that a partition pass which disagrees
// with the discovery scan is an error, never a panic or an overfull
// partition. The discovery scan sees ids up to 3 and four edges. A later
// pass that names id 9 must fail with graph.ErrVertexRange instead of
// indexing past the local-id map. A later pass that yields eight edges must
// fail once every partition reaches its capacity, ⌈1.05·4/2⌉ = 3, instead
// of loading both partitions with 4.
func TestBufferedPassesDisagree(t *testing.T) {
	first := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0}}
	cases := []struct {
		name  string
		later []graph.Edge
		want  error // nil: any error
	}{
		{"unseen id", []graph.Edge{{U: 0, V: 1}, {U: 1, V: 9}, {U: 2, V: 3}, {U: 3, V: 0}}, graph.ErrVertexRange},
		{"more edges", append(append([]graph.Edge(nil), first...), first...), nil},
	}
	for _, tc := range cases {
		src := &passStream{first: first, later: tc.later}
		res, err := (&Buffered{BufferEdges: 4}).Partition(src, 2)
		if err == nil {
			t.Errorf("%s: no error; loads %v", tc.name, res.Counts)
			continue
		}
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: error %v, want %v", tc.name, err, tc.want)
		}
		if src.passes != 2 {
			t.Errorf("%s: %d passes over the stream, want 2", tc.name, src.passes)
		}
	}
}
