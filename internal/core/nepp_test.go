package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"hep/internal/gen"
	"hep/internal/graph"
	"hep/internal/memmodel"
	"hep/internal/part"
)

// TestQuickExactlyOnceRandomGraphs is the repository's strongest property
// test: for random simple graphs, random τ and random k, HEP assigns every
// edge to exactly one partition and balance holds.
func TestQuickExactlyOnceRandomGraphs(t *testing.T) {
	f := func(seed int64, rawK, rawTau, rawN uint8) bool {
		n := 20 + int(rawN)%200
		k := 1 + int(rawK)%40
		tau := []float64{math.Inf(1), 50, 8, 3, 1.2, 1}[int(rawTau)%6]
		rng := rand.New(rand.NewSource(seed))
		m := n * (1 + rng.Intn(8))
		edges := make([]graph.Edge, 0, m)
		seen := map[graph.Edge]bool{}
		for i := 0; i < m; i++ {
			u, v := graph.V(rng.Intn(n)), graph.V(rng.Intn(n))
			if u == v {
				continue
			}
			c := graph.Edge{U: u, V: v}.Canonical()
			if seen[c] {
				continue
			}
			seen[c] = true
			edges = append(edges, graph.Edge{U: u, V: v})
		}
		g := graph.NewMemGraph(n, edges)

		col := &part.Collect{}
		h := &HEP{Tau: tau}
		h.SetSink(col)
		res, err := h.Partition(g, k)
		if err != nil {
			t.Logf("seed=%d n=%d k=%d tau=%v: %v", seed, n, k, tau, err)
			return false
		}
		if res.M != int64(len(edges)) {
			t.Logf("seed=%d: assigned %d of %d", seed, res.M, len(edges))
			return false
		}
		// Multiset equality.
		want := make([]graph.Edge, len(edges))
		for i, e := range edges {
			want[i] = e.Canonical()
		}
		got := make([]graph.Edge, len(col.Edges))
		for i, te := range col.Edges {
			got[i] = te.E.Canonical()
		}
		sortEdges(want)
		sortEdges(got)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if want[i] != got[i] {
				t.Logf("seed=%d n=%d k=%d tau=%v: multiset mismatch at %d", seed, n, k, tau, i)
				return false
			}
		}
		// Balance: every partition within ceil(m/k)+1.
		bound := (int64(len(edges))+int64(k)-1)/int64(k) + 1
		for _, c := range res.Counts {
			if c > bound {
				t.Logf("seed=%d: count %d > bound %d", seed, c, bound)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func sortEdges(e []graph.Edge) {
	sort.Slice(e, func(i, j int) bool {
		if e[i].U != e[j].U {
			return e[i].U < e[j].U
		}
		return e[i].V < e[j].V
	})
}

// countingTracer records Touch calls.
type countingTracer struct {
	touches int64
	entries int64
}

func (c *countingTracer) Touch(off int64, n int32) {
	c.touches++
	c.entries += int64(n)
}

func TestTracerSeesColumnAccesses(t *testing.T) {
	g := gen.BarabasiAlbert(800, 4, 5)
	tr := &countingTracer{}
	h := &HEP{Tau: 10, Tracer: tr}
	if _, err := h.Partition(g, 8); err != nil {
		t.Fatal(err)
	}
	if tr.touches == 0 {
		t.Fatal("tracer saw no accesses")
	}
	// Every vertex's lists are scanned at least once over a run; the
	// traced entry count must be at least the column length touched by
	// the last-partition sweep alone.
	if tr.entries == 0 {
		t.Fatal("tracer saw no entries")
	}
}

func TestNEPPSpillStats(t *testing.T) {
	// A clique forces massive overshoot in the first expansion step, so
	// spill-over must trigger and balance must survive.
	g := gen.Clique(40) // 780 edges
	h := &HEP{Tau: math.Inf(1)}
	res, err := h.Partition(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if h.LastStats.SpillEdges == 0 {
		t.Error("expected spill-over on a clique")
	}
	bound := (g.NumEdges()+7)/8 + 1
	for p, c := range res.Counts {
		if c > bound {
			t.Errorf("partition %d: %d > %d", p, c, bound)
		}
	}
}

func TestNEPPInMemBoundAdapted(t *testing.T) {
	// §3.2.3 "Adapted Partition Capacity Bound": at low τ the in-memory
	// bound shrinks to |E \ E_h2h| / k.
	g := gen.RMAT(11, 10, 0.6, 0.19, 0.19, 6)
	h := &HEP{Tau: 1}
	if _, err := h.Partition(g, 8); err != nil {
		t.Fatal(err)
	}
	st := h.LastStats
	if st.H2HEdges == 0 {
		t.Fatal("no pruning at tau=1 on a skewed graph")
	}
	wantBound := (g.NumEdges() - st.H2HEdges + 7) / 8
	if st.InMemBound != wantBound {
		t.Errorf("in-mem bound %d, want %d", st.InMemBound, wantBound)
	}
}

func TestNEPPSequentialSeedSkipsPermanently(t *testing.T) {
	// After partitioning, the seed cursor must not have wrapped: every
	// vertex is visited at most once by initialization (§3.2.3).
	g := gen.DisconnectedComponents(10, 50, 2, 7)
	csr, err := graph.BuildCSR(g, math.Inf(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	res := part.NewResult(csr.N(), 4)
	ne := NewNEPP(csr, 4, res, nil)
	ne.Run()
	if ne.seedCursor > csr.N() {
		t.Fatalf("seed cursor %d beyond n=%d", ne.seedCursor, csr.N())
	}
	if ne.Stats().Seeds == 0 {
		t.Fatal("disconnected graph needed no re-initialization?")
	}
}

func TestCleanupSeparatesCore(t *testing.T) {
	// Theorem 3.1 made operational: at every partition boundary — and in
	// particular after the run — no valid entry of a vertex outside the
	// core points into the core (the clean-up "removes all links into
	// it", Figure 6). The last-partition sweep assigns without removing,
	// but it also never moves vertices to the core, so the invariant is
	// observable post-run.
	g := gen.BarabasiAlbert(600, 4, 8)
	csr, err := graph.BuildCSR(g, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := part.NewResult(csr.N(), 8)
	ne := NewNEPP(csr, 8, res, nil)
	ne.Run()
	for v := 0; v < csr.N(); v++ {
		if ne.InCore(graph.V(v)) || csr.IsHigh(graph.V(v)) {
			continue
		}
		out, in := csr.Lists(graph.V(v))
		for _, u := range out {
			if ne.InCore(u) {
				t.Fatalf("vertex %d outside core keeps a valid out-entry to core vertex %d", v, u)
			}
		}
		for _, u := range in {
			if ne.InCore(u) {
				t.Fatalf("vertex %d outside core keeps a valid in-entry to core vertex %d", v, u)
			}
		}
	}
}

// TestAdvanceSecondaryRetiresSBit steps through Run's partition loop and
// checks, after every advanceSecondary, that no vertex carries the retired
// secondary-set bit: the bit that stood for S_i now stands for S_{i+1}, which
// nothing has pre-seeded yet. The stepped run must also match Run edge for
// edge, and spill-over must pre-seed some S_{i+1}, so the two bits really
// swap roles over members.
func TestAdvanceSecondaryRetiresSBit(t *testing.T) {
	const k = 16
	g := gen.MustDataset("TW").Build(0.1)
	run := func(step bool) []part.TaggedEdge {
		csr, err := graph.BuildCSR(g, 5, nil)
		if err != nil {
			t.Fatal(err)
		}
		col := &part.Collect{}
		res := part.NewResult(csr.N(), k)
		res.Sink = col
		ne := NewNEPP(csr, k, res, nil)
		if !step {
			ne.Run()
			return col.Edges
		}
		preseeded := 0
		for i := 0; i < k-1; i++ {
			ne.cur = i
			exhausted := ne.expand(i)
			ne.cleanup(i)
			preseeded += len(ne.nextMembers)
			ne.advanceSecondary()
			for v, s := range ne.state {
				if s&ne.sNext != 0 {
					t.Fatalf("after partition %d: vertex %d keeps the retired S bit", i, v)
				}
			}
			if exhausted {
				break
			}
		}
		ne.cur = k - 1
		ne.assignRemaining(k - 1)
		if preseeded == 0 {
			t.Fatal("no spill-over pre-seeded a secondary set")
		}
		return col.Edges
	}
	want, got := run(false), run(true)
	if len(got) != len(want) {
		t.Fatalf("stepped run assigned %d edges, Run %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edge %d: stepped run %v, Run %v", i, got[i], want[i])
		}
	}
}

// TestVertexStateMatchesModel pins the §4.2 model's vertex-state term to the
// bytes NewNEPP allocates for its per-vertex state.
func TestVertexStateMatchesModel(t *testing.T) {
	g := gen.MustDataset("OK").Build(0.1)
	deg, m, err := graph.Degrees(g)
	if err != nil {
		t.Fatal(err)
	}
	csr, err := graph.BuildCSR(g, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	ne := NewNEPP(csr, 32, part.NewResult(csr.N(), 32), nil)
	if got, want := int64(cap(ne.state)), memmodel.Estimate(deg, m, 32, 5).VertexState; got != want {
		t.Fatalf("NewNEPP allocates %d state bytes, the model charges %d", got, want)
	}
}
