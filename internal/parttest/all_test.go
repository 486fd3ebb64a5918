package parttest

import (
	"errors"
	"testing"

	"hep/internal/core"
	"hep/internal/dne"
	"hep/internal/gen"
	"hep/internal/graph"
	"hep/internal/hybrid"
	"hep/internal/mlp"
	"hep/internal/ne"
	"hep/internal/ooc"
	"hep/internal/part"
	"hep/internal/restream"
	"hep/internal/stream"
)

// algoCase describes one algorithm and the balance guarantee it makes.
type algoCase struct {
	algo  part.Algorithm
	alpha float64 // 0: no balance guarantee to check
	slack int64
}

func allAlgorithms() []algoCase {
	return []algoCase{
		{&core.HEP{Tau: 100}, 1.0, 2},
		{&core.HEP{Tau: 10}, 1.0, 2},
		{&core.HEP{Tau: 1}, 1.0, 2},
		{&core.HEP{}, 1.0, 2}, // pure NE++
		{&ne.NE{Seed: 7}, 1.0, 2},
		{&ne.NE{Seed: 7, SequentialInit: true}, 1.0, 2},
		{&ne.SNE{}, 1.0, 2},
		{&stream.HDRF{}, 1.05, 2},
		{&stream.HDRF{ExactDegrees: true}, 1.05, 2},
		{&stream.Greedy{}, 1.05, 2},
		{&stream.DBH{}, 0, 0},
		{&stream.Grid{}, 0, 0},
		{&stream.Random{Seed: 3}, 1.0, 2},
		{&stream.ADWISE{Window: 16}, 1.05, 2},
		{&dne.DNE{Workers: 1, Seed: 5}, 0, 0},
		{&dne.DNE{Workers: 2, Seed: 5}, 0, 0},
		{&mlp.MLP{Seed: 9}, 0, 0},
		{&hybrid.Simple{Tau: 10, Seed: 13}, 1.0, 2},
		{&ooc.Buffered{BufferEdges: 512}, 1.05, 2},
		{&ooc.Buffered{BufferEdges: 8192}, 1.05, 2}, // conformance graphs fit one batch
		{&restream.Restream{Passes: 2}, 1.05, 2},
	}
}

func conformanceGraphs() map[string]*graph.MemGraph {
	return map[string]*graph.MemGraph{
		"ba":           gen.BarabasiAlbert(800, 5, 101),
		"community":    gen.CommunityPowerLaw(1200, 20, 6, 0.2, 102),
		"web":          gen.WebGraph(12, 30, 4, 0.05, 103),
		"er":           gen.ErdosRenyi(400, 2400, 104),
		"star":         gen.Star(200),
		"grid":         gen.Grid2D(20, 20),
		"disconnected": gen.DisconnectedComponents(4, 100, 3, 105),
		"tiny":         graph.NewMemGraph(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}),
	}
}

// TestAllAlgorithmsConformance is the repository-wide validity matrix:
// every partitioner must assign every edge exactly once on every graph
// family, keep replica sets consistent, and respect its declared balance
// bound.
func TestAllAlgorithmsConformance(t *testing.T) {
	graphs := conformanceGraphs()
	for _, tc := range allAlgorithms() {
		for gname, g := range graphs {
			for _, k := range []int{2, 5, 16} {
				name := tc.algo.Name() + "/" + gname
				if _, err := RunAndCheck(tc.algo, g, k, tc.alpha, tc.slack); err != nil {
					t.Errorf("%s k=%d: %v", name, k, err)
				}
			}
		}
	}
}

// TestEveryAlgorithmChecksVertexIDs calls every partitioner directly, with
// no facade in front, on a 5-vertex graph holding the edge (2,9), and on one
// holding (2,2^31), an id that is negative as a 32-bit int: each must
// return an error wrapping graph.ErrVertexRange, never panic. Buffered is
// exempt: it takes its id domain from its own discovery scan.
func TestEveryAlgorithmChecksVertexIDs(t *testing.T) {
	for _, bad := range []graph.Edge{{U: 2, V: 9}, {U: 2, V: 1 << 31}} {
		g := graph.NewMemGraph(5, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, bad, {U: 3, V: 4}})
		for _, tc := range allAlgorithms() {
			if _, ok := tc.algo.(*ooc.Buffered); ok {
				continue
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s %v: panic: %v", tc.algo.Name(), bad, r)
					}
				}()
				if _, err := tc.algo.Partition(g, 2); !errors.Is(err, graph.ErrVertexRange) {
					t.Errorf("%s %v: err = %v, want ErrVertexRange", tc.algo.Name(), bad, err)
				}
			}()
		}
	}
}

// TestQualityOrderingOnCommunityGraph pins the qualitative ordering the
// paper's evaluation depends on (Figure 8): on a power-law graph with
// community structure, expansion-based partitioning clearly beats stateful
// streaming, which clearly beats random assignment.
func TestQualityOrderingOnCommunityGraph(t *testing.T) {
	g := gen.CommunityPowerLaw(6000, 50, 8, 0.2, 201)
	k := 32
	rf := func(a part.Algorithm) float64 {
		res, err := a.Partition(g, k)
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		return res.ReplicationFactor()
	}
	nepp := rf(&core.HEP{})
	hdrf := rf(&stream.HDRF{})
	random := rf(&stream.Random{Seed: 1})
	if !(nepp < hdrf && hdrf < random) {
		t.Errorf("expected NE++ (%.2f) < HDRF (%.2f) < Random (%.2f)", nepp, hdrf, random)
	}
	// And the reference NE must match NE++ quality within 15% (paper §3.2:
	// NE++ yields "the same partitioning quality").
	refNE := rf(&ne.NE{Seed: 7})
	if refNE > nepp*1.15 || nepp > refNE*1.15 {
		t.Errorf("NE (%.2f) and NE++ (%.2f) quality diverged beyond 15%%", refNE, nepp)
	}
}

// TestSNEWorseThanNEButBetterThanRandom pins SNE's place in the quality
// spectrum (paper §6).
func TestSNEWorseThanNEButBetterThanRandom(t *testing.T) {
	g := gen.CommunityPowerLaw(4000, 40, 8, 0.2, 202)
	k := 16
	run := func(a part.Algorithm) float64 {
		res, err := a.Partition(g, k)
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		return res.ReplicationFactor()
	}
	neRF := run(&ne.NE{Seed: 3})
	sneRF := run(&ne.SNE{})
	randRF := run(&stream.Random{Seed: 3})
	if sneRF < neRF*0.95 {
		t.Errorf("SNE RF %.2f unexpectedly better than NE RF %.2f", sneRF, neRF)
	}
	if sneRF >= randRF {
		t.Errorf("SNE RF %.2f not better than random RF %.2f", sneRF, randRF)
	}
}

// TestDNEQualityDegradation pins the paper's §5.2 observation: concurrent
// expansion degrades RF versus sequential NE.
func TestDNEQualityDegradation(t *testing.T) {
	g := gen.CommunityPowerLaw(4000, 40, 8, 0.2, 203)
	k := 16
	neRes, err := (&ne.NE{Seed: 3}).Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	dneRes, err := (&dne.DNE{Workers: 2, Seed: 3}).Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	if dneRes.ReplicationFactor() < neRes.ReplicationFactor()*0.95 {
		t.Errorf("DNE RF %.2f unexpectedly better than NE RF %.2f",
			dneRes.ReplicationFactor(), neRes.ReplicationFactor())
	}
}

// TestSimpleHybridWorseThanHEP pins §5.4: HEP's informed design must beat
// the NE + random-streaming hybrid at low τ, where the streaming phase
// dominates.
func TestSimpleHybridWorseThanHEP(t *testing.T) {
	g := gen.CommunityPowerLaw(6000, 50, 10, 0.25, 204)
	k := 32
	hepRes, err := (&core.HEP{Tau: 1}).Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	sh := &hybrid.Simple{Tau: 1, Seed: 5}
	shRes, err := sh.Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	if sh.LastSplit.H2H == 0 {
		t.Fatal("expected a non-empty H2H split at tau=1")
	}
	if hepRes.ReplicationFactor() >= shRes.ReplicationFactor() {
		t.Errorf("HEP-1 RF %.2f not better than simple hybrid RF %.2f",
			hepRes.ReplicationFactor(), shRes.ReplicationFactor())
	}
}
