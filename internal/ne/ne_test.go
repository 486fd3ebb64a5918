package ne

import (
	"testing"

	"hep/internal/gen"
	"hep/internal/graph"
	"hep/internal/part"
)

func TestNESeedStrategiesSameQualityBand(t *testing.T) {
	// §3.2.3: initialization strategy affects run-time, not quality.
	g := gen.CommunityPowerLaw(3000, 30, 6, 0.2, 1)
	random, err := (&NE{Seed: 1}).Partition(g, 16)
	if err != nil {
		t.Fatal(err)
	}
	sequential, err := (&NE{Seed: 1, SequentialInit: true}).Partition(g, 16)
	if err != nil {
		t.Fatal(err)
	}
	a, b := random.ReplicationFactor(), sequential.ReplicationFactor()
	if a > b*1.2 || b > a*1.2 {
		t.Errorf("seed strategies diverge: random %.3f vs sequential %.3f", a, b)
	}
}

func TestNEPerfectEdgeBalance(t *testing.T) {
	g := gen.BarabasiAlbert(2000, 6, 2)
	res, err := (&NE{Seed: 2}).Partition(g, 32)
	if err != nil {
		t.Fatal(err)
	}
	bound := (g.NumEdges()+31)/32 + 1
	for p, c := range res.Counts {
		if c > bound {
			t.Fatalf("partition %d has %d > %d", p, c, bound)
		}
	}
}

func TestNEKOne(t *testing.T) {
	g := gen.Path(50)
	res, err := (&NE{Seed: 1}).Partition(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.M != 49 || res.ReplicationFactor() != 1 {
		t.Fatalf("k=1: M=%d RF=%v", res.M, res.ReplicationFactor())
	}
}

func TestNEDisconnectedComponents(t *testing.T) {
	// Re-initialization must hop across components without losing edges.
	g := gen.DisconnectedComponents(8, 60, 2, 3)
	res, err := (&NE{Seed: 3}).Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.M != g.NumEdges() {
		t.Fatalf("assigned %d of %d", res.M, g.NumEdges())
	}
}

func TestNELocalityOnPath(t *testing.T) {
	// On a path, expansion should produce near-contiguous partitions:
	// RF close to 1 (only partition borders replicate).
	g := gen.Path(1000)
	res, err := (&NE{Seed: 4}).Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rf := res.ReplicationFactor(); rf > 1.05 {
		t.Errorf("path RF = %.3f, expansion lost locality", rf)
	}
}

func TestSNESampleFactorImprovesQuality(t *testing.T) {
	// A larger in-memory sample gives SNE a wider view and must not hurt.
	g := gen.CommunityPowerLaw(4000, 40, 6, 0.2, 5)
	small, err := (&SNE{SampleFactor: 1}).Partition(g, 16)
	if err != nil {
		t.Fatal(err)
	}
	large, err := (&SNE{SampleFactor: 8}).Partition(g, 16)
	if err != nil {
		t.Fatal(err)
	}
	if large.ReplicationFactor() > small.ReplicationFactor()*1.05 {
		t.Errorf("sample=8 RF %.3f worse than sample=1 RF %.3f",
			large.ReplicationFactor(), small.ReplicationFactor())
	}
}

func TestSNEAssignsEverythingOnHardInputs(t *testing.T) {
	for name, g := range map[string]*graph.MemGraph{
		"clique":  gen.Clique(30),
		"er":      gen.ErdosRenyi(200, 1500, 7),
		"star":    gen.Star(100),
		"one":     graph.NewMemGraph(2, []graph.Edge{{U: 0, V: 1}}),
		"kBigger": gen.Path(5), // k > |E|
	} {
		res, err := (&SNE{}).Partition(g, 8)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.M != g.NumEdges() {
			t.Fatalf("%s: assigned %d of %d", name, res.M, g.NumEdges())
		}
	}
}

func TestRunComposesIntoExistingResult(t *testing.T) {
	// The hybrid baseline depends on NE writing into a shared result.
	g := gen.BarabasiAlbert(400, 4, 9)
	res := part.NewResult(g.NumVertices(), 4)
	res.Counts[0] = 0
	if err := Run(g, 4, res, 1, false); err != nil {
		t.Fatal(err)
	}
	if res.M != g.NumEdges() {
		t.Fatalf("M = %d", res.M)
	}
}

// reportedCount streams g's edges but reports m as its edge count. It is a
// plain EdgeStream: no slab lending, no slice access.
type reportedCount struct {
	g *graph.MemGraph
	m int64
}

func (s reportedCount) NumVertices() int                          { return s.g.NumVertices() }
func (s reportedCount) NumEdges() int64                           { return s.m }
func (s reportedCount) Edges(yield func(u, v graph.V) bool) error { return s.g.Edges(yield) }

// TestReportedEdgeCountIgnored pins NE and SNE to the edges they read: a
// stream reporting 0 ("count unknown"), a negative count, half or twice its
// real count must deliver the sink sequence the MemGraph itself delivers.
// SNE used to size its balance bound from the report (0 put every edge on
// one partition) and NE to pre-size from it (a negative count panicked).
func TestReportedEdgeCountIgnored(t *testing.T) {
	g := gen.MustDataset("OK").Build(0.05)
	m := g.NumEdges()
	const k = 8
	for _, algo := range []struct {
		name string
		new  func() part.Algorithm
	}{
		{"NE", func() part.Algorithm { return &NE{Seed: 1} }},
		{"SNE", func() part.Algorithm { return &SNE{} }},
	} {
		run := func(src graph.EdgeStream) []part.TaggedEdge {
			a := algo.new()
			col := &part.Collect{}
			a.(part.SinkSetter).SetSink(col)
			if _, err := a.Partition(src, k); err != nil {
				t.Fatalf("%s, %d edges reported: %v", algo.name, src.NumEdges(), err)
			}
			return col.Edges
		}
		want := run(g)
		if int64(len(want)) != m {
			t.Fatalf("%s: sink saw %d of %d edges", algo.name, len(want), m)
		}
		for _, reported := range []int64{0, -1, m / 2, 2 * m} {
			got := run(reportedCount{g: g, m: reported})
			if len(got) != len(want) {
				t.Fatalf("%s, %d edges reported: sink saw %d edges, honest count %d", algo.name, reported, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s, %d edges reported: assignment %d is %v, honest count %v", algo.name, reported, i, got[i], want[i])
				}
			}
		}
	}
}
