package core

import (
	"math"
	"testing"

	"hep/internal/gen"
	"hep/internal/graph"
	"hep/internal/part"
	"hep/internal/parttest"
)

// testGraphs returns a diverse set of graphs exercising every structural
// corner: power-law, dense, sparse, disconnected, degenerate.
func testGraphs(t *testing.T) map[string]*graph.MemGraph {
	t.Helper()
	return map[string]*graph.MemGraph{
		"ba-small":     gen.BarabasiAlbert(500, 4, 1),
		"ba-mid":       gen.BarabasiAlbert(3000, 8, 2),
		"rmat":         gen.RMAT(10, 8, 0.57, 0.19, 0.19, 3),
		"er":           gen.ErdosRenyi(800, 4000, 4),
		"web":          gen.WebGraph(20, 25, 4, 0.05, 5),
		"powerlaw":     gen.PowerLawConfig(1000, 2.3, 2, 200, 6),
		"star":         gen.Star(257),
		"path":         gen.Path(100),
		"cycle":        gen.Cycle(64),
		"grid":         gen.Grid2D(16, 16),
		"clique":       gen.Clique(24),
		"bipartite":    gen.CompleteBipartite(10, 40),
		"disconnected": gen.DisconnectedComponents(5, 200, 3, 7),
		"two-edges":    graph.NewMemGraph(4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}}),
		"one-edge":     graph.NewMemGraph(2, []graph.Edge{{U: 0, V: 1}}),
		"empty":        graph.NewMemGraph(5, nil),
	}
}

func TestHEPExactlyOnceAcrossGraphsAndParams(t *testing.T) {
	for name, g := range testGraphs(t) {
		for _, k := range []int{1, 2, 4, 7, 32} {
			for _, tau := range []float64{math.Inf(1), 100, 10, 4, 1} {
				h := &HEP{Tau: tau}
				res, err := parttest.RunAndCheck(h, g, k, 1.0, 1)
				if err != nil {
					t.Fatalf("%s k=%d tau=%v: %v", name, k, tau, err)
				}
				if res.M != g.NumEdges() {
					t.Fatalf("%s k=%d tau=%v: assigned %d of %d edges", name, k, tau, res.M, g.NumEdges())
				}
			}
		}
	}
}

func TestHEPBalancePerfect(t *testing.T) {
	// The paper reports HEP keeps partitions perfectly balanced (§5.2):
	// every partition must stay within ⌈|E|/k⌉ (+1 rounding slack).
	g := gen.BarabasiAlbert(4000, 10, 11)
	for _, k := range []int{4, 32, 128} {
		for _, tau := range []float64{100, 10, 1} {
			h := &HEP{Tau: tau}
			res, err := h.Partition(g, k)
			if err != nil {
				t.Fatal(err)
			}
			bound := (g.NumEdges()+int64(k)-1)/int64(k) + 1
			for p, c := range res.Counts {
				if c > bound {
					t.Errorf("k=%d tau=%v: partition %d has %d edges > bound %d", k, tau, p, c, bound)
				}
			}
		}
	}
}

func TestNEPPPureEqualsHEPWithInfiniteTau(t *testing.T) {
	g := gen.BarabasiAlbert(1000, 5, 21)
	h := &HEP{Tau: math.Inf(1)}
	res, err := h.Partition(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if h.LastStats.H2HEdges != 0 {
		t.Fatalf("pure NE++ run spilled %d edges to streaming", h.LastStats.H2HEdges)
	}
	if res.M != g.NumEdges() {
		t.Fatalf("assigned %d of %d edges", res.M, g.NumEdges())
	}
}

func TestHEPTauControlsH2HFraction(t *testing.T) {
	// Lower τ ⇒ more vertices counted high-degree ⇒ more edges streamed
	// (paper §3.1, Figure 9 edge-type ratios are monotone in τ).
	g := gen.RMAT(12, 12, 0.6, 0.19, 0.19, 22)
	prev := int64(-1)
	for _, tau := range []float64{100, 10, 1} {
		h := &HEP{Tau: tau}
		if _, err := h.Partition(g, 16); err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && h.LastStats.H2HEdges < prev {
			t.Errorf("tau=%v: h2h=%d decreased below %d of higher tau", tau, h.LastStats.H2HEdges, prev)
		}
		prev = h.LastStats.H2HEdges
	}
	if prev == 0 {
		t.Fatal("tau=1 produced no h2h edges on a skewed RMAT graph")
	}
}

func TestHEPReplicationFactorOrdering(t *testing.T) {
	// On a power-law graph, HEP with high τ (mostly NE++) must beat plain
	// random streaming on replication factor by a wide margin, and RF must
	// be ≥ 1 by definition.
	g := gen.BarabasiAlbert(5000, 8, 31)
	h := &HEP{Tau: 100}
	res, err := h.Partition(g, 32)
	if err != nil {
		t.Fatal(err)
	}
	rf := res.ReplicationFactor()
	if rf < 1 {
		t.Fatalf("replication factor %v < 1", rf)
	}
	hr := &HEP{Tau: 100, RandomStream: true, Seed: 1}
	// Random streaming over everything: compare against a τ=1 random
	// variant which streams most edges.
	hr.Tau = 1
	resRand, err := hr.Partition(g, 32)
	if err != nil {
		t.Fatal(err)
	}
	if rf >= resRand.ReplicationFactor() {
		t.Errorf("HEP-100 RF %.2f not better than mostly-random streaming RF %.2f",
			rf, resRand.ReplicationFactor())
	}
}

func TestHEPRFImprovesWithTau(t *testing.T) {
	// Paper §4.3: higher τ ⇒ more edges handled by NE++ ⇒ better (lower)
	// RF on graphs with community structure (the regime of the paper's
	// social networks); τ=100 must clearly beat τ=1.
	g := gen.CommunityPowerLaw(8000, 60, 10, 0.2, 33)
	rf := map[float64]float64{}
	for _, tau := range []float64{100, 1} {
		h := &HEP{Tau: tau}
		res, err := h.Partition(g, 32)
		if err != nil {
			t.Fatal(err)
		}
		rf[tau] = res.ReplicationFactor()
	}
	if rf[100] >= rf[1] {
		t.Errorf("RF(tau=100)=%.3f not lower than RF(tau=1)=%.3f", rf[100], rf[1])
	}
}

func TestHEPInformedStreamBeatsRandomStream(t *testing.T) {
	// Ablation for §5.4 observation (3): HDRF informed streaming must
	// yield a better RF than random streaming on the same h2h edges.
	g := gen.RMAT(13, 10, 0.6, 0.19, 0.19, 44)
	informed := &HEP{Tau: 1}
	ri, err := informed.Partition(g, 32)
	if err != nil {
		t.Fatal(err)
	}
	random := &HEP{Tau: 1, RandomStream: true, Seed: 9}
	rr, err := random.Partition(g, 32)
	if err != nil {
		t.Fatal(err)
	}
	if ri.ReplicationFactor() >= rr.ReplicationFactor() {
		t.Errorf("informed RF %.3f not better than random RF %.3f",
			ri.ReplicationFactor(), rr.ReplicationFactor())
	}
}

func TestNEPPStatsAccounting(t *testing.T) {
	g := gen.BarabasiAlbert(2000, 6, 55)
	h := &HEP{Tau: 10}
	if _, err := h.Partition(g, 16); err != nil {
		t.Fatal(err)
	}
	st := h.LastStats
	if st.ColEntries <= 0 {
		t.Fatal("no column entries recorded")
	}
	if st.CleanupRemoved > st.ColEntries {
		t.Errorf("cleanup removed %d > column entries %d", st.CleanupRemoved, st.ColEntries)
	}
	if st.Seeds == 0 {
		t.Error("expected at least one initialization seed")
	}
	if st.CoreCount == 0 {
		t.Error("no vertices moved to core")
	}
	// Figure 5 property: secondary-set leftovers have much higher average
	// degree than core moves on power-law graphs.
	coreAvg := float64(st.CoreDegSum) / float64(st.CoreCount)
	if st.SecCount > 0 {
		secAvg := float64(st.SecDegSum) / float64(st.SecCount)
		if secAvg <= coreAvg {
			t.Errorf("expected secondary avg degree (%.1f) > core avg degree (%.1f)", secAvg, coreAvg)
		}
	}
}

func TestHEPName(t *testing.T) {
	if n := (&HEP{Tau: 10}).Name(); n != "HEP-10" {
		t.Errorf("got %q", n)
	}
	if n := (&HEP{Tau: math.Inf(1)}).Name(); n != "NE++" {
		t.Errorf("got %q", n)
	}
	if n := (&HEP{}).Name(); n != "NE++" {
		t.Errorf("got %q", n)
	}
}

func TestHEPKOne(t *testing.T) {
	g := gen.BarabasiAlbert(300, 4, 66)
	h := &HEP{Tau: 2}
	res, err := parttest.RunAndCheck(h, g, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rf := res.ReplicationFactor(); rf != 1 {
		t.Errorf("k=1 replication factor = %v, want 1", rf)
	}
}

func TestHEPRejectsBadK(t *testing.T) {
	g := gen.Path(10)
	h := &HEP{Tau: 2}
	if _, err := h.Partition(g, 0); err == nil {
		t.Fatal("expected error for k=0")
	}
}

func TestHEPSelfLoopRejected(t *testing.T) {
	g := graph.NewMemGraph(3, []graph.Edge{{U: 0, V: 0}})
	h := &HEP{Tau: 2}
	if _, err := h.Partition(g, 2); err == nil {
		t.Fatal("expected error for self-loop input")
	}
}

func TestHEPDeterministic(t *testing.T) {
	g := gen.BarabasiAlbert(1500, 6, 77)
	run := func() *part.Result {
		h := &HEP{Tau: 10}
		res, err := h.Partition(g, 16)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for p := range a.Counts {
		if a.Counts[p] != b.Counts[p] {
			t.Fatalf("non-deterministic counts at partition %d: %d vs %d", p, a.Counts[p], b.Counts[p])
		}
	}
	if a.ReplicationFactor() != b.ReplicationFactor() {
		t.Fatal("non-deterministic replication factor")
	}
}
