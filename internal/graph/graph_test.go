package graph

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCanonical(t *testing.T) {
	if (Edge{U: 5, V: 2}).Canonical() != (Edge{U: 2, V: 5}) {
		t.Fatal("canonical did not swap")
	}
	if (Edge{U: 2, V: 5}).Canonical() != (Edge{U: 2, V: 5}) {
		t.Fatal("canonical swapped needlessly")
	}
}

func TestFromEdges(t *testing.T) {
	g := FromEdges([]Edge{{U: 3, V: 9}, {U: 0, V: 1}})
	if g.NumVertices() != 10 {
		t.Fatalf("n = %d, want 10", g.NumVertices())
	}
	if g.NumEdges() != 2 {
		t.Fatalf("m = %d", g.NumEdges())
	}
	if FromEdges(nil).NumVertices() != 0 {
		t.Fatal("empty edge list should give 0 vertices")
	}
}

func TestDegrees(t *testing.T) {
	g := NewMemGraph(4, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 1, V: 3}})
	deg, m, err := Degrees(g)
	if err != nil {
		t.Fatal(err)
	}
	if m != 3 {
		t.Fatalf("m = %d", m)
	}
	want := []int32{1, 3, 1, 1}
	for v, d := range want {
		if deg[v] != d {
			t.Errorf("deg[%d] = %d, want %d", v, deg[v], d)
		}
	}
}

func TestDegreesRangeError(t *testing.T) {
	g := NewMemGraph(2, []Edge{{U: 0, V: 5}})
	if _, _, err := Degrees(g); !errors.Is(err, ErrVertexRange) {
		t.Fatalf("got %v, want ErrVertexRange", err)
	}
}

// TestDegreeOverflowGuard lowers the representable-degree bound: both exact
// counting passes, Degrees and BuildCSR's first pass, must fail with
// ErrDegreeOverflow once a count would pass it instead of wrapping, and
// accept a count that reaches it exactly.
func TestDegreeOverflowGuard(t *testing.T) {
	defer func(old int32) { maxDegree = old }(maxDegree)
	maxDegree = 3

	// star(d, in) gives vertex 0 degree d, as the left-hand endpoint of
	// every edge (out-list) or the right-hand one (in-list).
	star := func(d int, in bool) *MemGraph {
		var edges []Edge
		for i := 1; i <= d; i++ {
			e := Edge{U: 0, V: V(i)}
			if in {
				e = Edge{U: V(i), V: 0}
			}
			edges = append(edges, e)
		}
		return NewMemGraph(d+1, edges)
	}
	for _, in := range []bool{false, true} {
		if _, _, err := Degrees(star(3, in)); err != nil {
			t.Fatalf("in=%v: Degrees rejected a degree at the bound: %v", in, err)
		}
		if _, err := BuildCSR(star(3, in), 10, nil); err != nil {
			t.Fatalf("in=%v: BuildCSR rejected a degree at the bound: %v", in, err)
		}
		_, _, err := Degrees(star(4, in))
		if !errors.Is(err, ErrDegreeOverflow) || !strings.Contains(err.Error(), "vertex 0") {
			t.Fatalf("in=%v: Degrees got %v, want ErrDegreeOverflow at vertex 0", in, err)
		}
		_, err = BuildCSR(star(4, in), 10, nil)
		if !errors.Is(err, ErrDegreeOverflow) || !strings.Contains(err.Error(), "vertex 0") {
			t.Fatalf("in=%v: BuildCSR got %v, want ErrDegreeOverflow at vertex 0", in, err)
		}
	}

	// A self-loop contributes 2 (Degrees only; BuildCSR rejects it), so it
	// may not start past maxDegree-1.
	if _, _, err := Degrees(NewMemGraph(2, []Edge{{U: 1, V: 0}, {U: 1, V: 1}})); err != nil {
		t.Fatalf("self-loop reaching the bound rejected: %v", err)
	}
	if _, _, err := Degrees(NewMemGraph(3, []Edge{{U: 1, V: 0}, {U: 1, V: 2}, {U: 1, V: 1}})); !errors.Is(err, ErrDegreeOverflow) {
		t.Fatalf("self-loop overflow got %v, want ErrDegreeOverflow", err)
	}
}

func TestMeanDegreeAndThreshold(t *testing.T) {
	if MeanDegree(0, 0) != 0 {
		t.Fatal("mean of empty graph")
	}
	if MeanDegree(4, 6) != 3 {
		t.Fatal("mean degree wrong")
	}
	if !HighDegree(10, 1.5, 6) {
		t.Fatal("10 > 9 should be high")
	}
	if HighDegree(9, 1.5, 6) {
		t.Fatal("9 == 9 should be low (strict inequality)")
	}
}

func TestSplitByTau(t *testing.T) {
	// Star + one extra edge among leaves: center degree 4, leaves 1-2.
	g := NewMemGraph(5, []Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4}, {U: 1, V: 2}})
	// mean = 2. tau=1 → high iff deg > 2: only the center (deg 4).
	rest, h2h, deg, err := SplitByTau(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if deg[0] != 4 {
		t.Fatalf("deg[0] = %d", deg[0])
	}
	if len(h2h) != 0 {
		t.Fatalf("h2h = %v; single high vertex cannot form h2h edges", h2h)
	}
	if len(rest) != 5 {
		t.Fatalf("rest = %d", len(rest))
	}
	// tau=0.4 → high iff deg > 0.8: vertices 1,2 (deg 2) and 0 are high;
	// 3,4 (deg 1)… all degrees ≥ 1 > 0.8 so everything is high.
	rest, h2h, _, err = SplitByTau(g, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 || len(h2h) != 5 {
		t.Fatalf("rest=%d h2h=%d, want 0/5", len(rest), len(h2h))
	}
}

func buildTestCSR(t *testing.T, n int, edges []Edge, tau float64) *CSR {
	t.Helper()
	c, err := BuildCSR(NewMemGraph(n, edges), tau, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCSRBasicLayout(t *testing.T) {
	// Figure 4's spirit: 5 vertices, center 2 is high at low tau.
	edges := []Edge{{U: 2, V: 0}, {U: 2, V: 1}, {U: 2, V: 3}, {U: 2, V: 4}, {U: 0, V: 1}}
	c := buildTestCSR(t, 5, edges, math.Inf(1))
	if c.N() != 5 || c.M() != 5 {
		t.Fatalf("n=%d m=%d", c.N(), c.M())
	}
	if c.InMemEdges() != 5 || c.H2H().Len() != 0 {
		t.Fatal("no pruning expected at tau=inf")
	}
	// Vertex 2: out-list {0,1,3,4}, in-list {}.
	if out, in := c.Lists(2); len(out) != 4 || len(in) != 0 {
		t.Fatalf("lists(2) = %v, %v", out, in)
	}
	// Vertex 1: out {}, in {2, 0}.
	if _, in := c.Lists(1); len(in) != 2 {
		t.Fatalf("in(1) = %v", in)
	}
	if c.ValidDegree(2) != 4 || c.Degree(2) != 4 {
		t.Fatal("degree bookkeeping wrong")
	}
}

func TestCSRPruning(t *testing.T) {
	// Two hubs connected to each other and to leaves.
	edges := []Edge{
		{U: 0, V: 1}, // hub-hub
		{U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4},
		{U: 1, V: 5}, {U: 1, V: 6}, {U: 1, V: 7},
	}
	// n=8, m=7, mean=1.75. tau=1.5 → high iff deg > 2.625: hubs 0 (deg 4)
	// and 1 (deg 4).
	c := buildTestCSR(t, 8, edges, 1.5)
	if !c.IsHigh(0) || !c.IsHigh(1) || c.IsHigh(2) {
		t.Fatal("high-degree classification wrong")
	}
	if c.H2H().Len() != 1 {
		t.Fatalf("h2h = %d, want 1", c.H2H().Len())
	}
	if c.InMemEdges() != 6 {
		t.Fatalf("in-mem = %d, want 6", c.InMemEdges())
	}
	// Hubs own no lists.
	if out, in := c.Lists(0); len(out)+len(in) != 0 {
		t.Fatal("hub 0 has column entries")
	}
	// Leaf 2 sees the hub in its in-list.
	if _, in := c.Lists(2); len(in) != 1 || in[0] != 0 {
		t.Fatalf("in(2) = %v", in)
	}
	var h2h []Edge
	err := c.H2H().Edges(func(u, v V) bool {
		h2h = append(h2h, Edge{U: u, V: v})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(h2h) != 1 || h2h[0] != (Edge{U: 0, V: 1}) {
		t.Fatalf("h2h edges = %v", h2h)
	}
}

// TestCSRRemoveSwaps removes an entry the way NE++ does: swap in the last
// entry on the view Lists returns, then write the shorter length back.
func TestCSRRemoveSwaps(t *testing.T) {
	edges := []Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 4, V: 0}}
	c := buildTestCSR(t, 5, edges, math.Inf(1))
	out, in := c.Lists(0)
	if len(out) != 3 || len(in) != 1 {
		t.Fatalf("lists = %v, %v", out, in)
	}
	first := out[0]
	out[0] = out[len(out)-1]
	c.SetLens(0, len(out)-1, len(in))
	out, in = c.Lists(0)
	if len(out) != 2 || len(in) != 1 || in[0] != 4 {
		t.Fatalf("lists after remove = %v, %v", out, in)
	}
	for _, u := range out {
		if u == first {
			t.Fatalf("removed entry %d still present: %v", first, out)
		}
	}
	if c.ValidDegree(0) != 3 {
		t.Fatalf("valid degree = %d", c.ValidDegree(0))
	}
	if off, n := c.OutSpan(0); n != 2 {
		t.Fatalf("out span after remove: off=%d n=%d", off, n)
	}
}

func TestCSRRejectsSelfLoopAndBadTau(t *testing.T) {
	if _, err := BuildCSR(NewMemGraph(2, []Edge{{U: 1, V: 1}}), 10, nil); err == nil {
		t.Fatal("self-loop accepted")
	}
	if _, err := BuildCSR(NewMemGraph(2, nil), 0, nil); err == nil {
		t.Fatal("tau=0 accepted")
	}
	if _, err := BuildCSR(NewMemGraph(2, nil), -1, nil); err == nil {
		t.Fatal("negative tau accepted")
	}
}

func TestCSRRangeError(t *testing.T) {
	if _, err := BuildCSR(NewMemGraph(2, []Edge{{U: 0, V: 7}}), 10, nil); !errors.Is(err, ErrVertexRange) {
		t.Fatalf("got %v, want ErrVertexRange", err)
	}
}

// TestQuickCSRPreservesEdges: for random graphs and thresholds, the column
// array plus the H2H store must represent exactly the input edge multiset,
// with every low-low edge present in both endpoint lists and every low-high
// edge only on the low side.
func TestQuickCSRPreservesEdges(t *testing.T) {
	f := func(seed int64, rawTau uint8) bool {
		n := 50
		tau := 0.5 + float64(rawTau%40)/10 // 0.5 .. 4.4
		edges := randomSimpleEdges(seed, n, 120)
		g := NewMemGraph(n, edges)
		c, err := BuildCSR(g, tau, nil)
		if err != nil {
			return false
		}
		// Reconstruct: out-lists give (v,u) edges; h2h gives the rest.
		counts := map[Edge]int{}
		for _, e := range edges {
			counts[e.Canonical()]++
		}
		for v := 0; v < n; v++ {
			out, in := c.Lists(V(v))
			for _, u := range out {
				counts[Edge{U: V(v), V: u}.Canonical()]--
			}
			// In-lists of low vertices must only duplicate edges whose
			// other side is also low; high neighbors there are the
			// low-high edges counted via the *other* vertex's out list —
			// so count in-entries only when the neighbor is high AND the
			// neighbor (being high) has no out entry for it.
			for _, u := range in {
				if c.IsHigh(u) {
					counts[Edge{U: u, V: V(v)}.Canonical()]--
				}
			}
		}
		err = c.H2H().Edges(func(u, v V) bool {
			counts[Edge{U: u, V: v}.Canonical()]--
			return true
		})
		if err != nil {
			return false
		}
		for _, cnt := range counts {
			if cnt != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// randomSimpleEdges builds a deterministic random simple graph.
func randomSimpleEdges(seed int64, n, m int) []Edge {
	// Small deterministic LCG avoids importing math/rand here.
	state := uint64(seed)*2862933555777941757 + 3037000493
	next := func(mod int) int {
		state = state*2862933555777941757 + 3037000493
		return int((state >> 33) % uint64(mod))
	}
	seen := map[Edge]bool{}
	var edges []Edge
	for i := 0; i < m; i++ {
		u, v := V(next(n)), V(next(n))
		if u == v {
			continue
		}
		e := Edge{U: u, V: v}
		if seen[e.Canonical()] {
			continue
		}
		seen[e.Canonical()] = true
		edges = append(edges, e)
	}
	return edges
}

func TestMemH2HStore(t *testing.T) {
	s := &MemH2H{}
	if err := s.Append(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(3, 4); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	var got []Edge
	if err := s.Edges(func(u, v V) bool {
		got = append(got, Edge{U: u, V: v})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != (Edge{U: 1, V: 2}) {
		t.Fatalf("edges = %v", got)
	}
	// Early stop.
	calls := 0
	if err := s.Edges(func(u, v V) bool { calls++; return false }); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("early stop made %d calls", calls)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCSRMemBytesAndSpans(t *testing.T) {
	edges := []Edge{{U: 0, V: 1}, {U: 1, V: 2}}
	c := buildTestCSR(t, 3, edges, math.Inf(1))
	if c.MemBytes() <= 0 {
		t.Fatal("MemBytes not positive")
	}
	off, n := c.OutSpan(1)
	if n != 1 {
		t.Fatalf("out span of 1: off=%d n=%d", off, n)
	}
	_, n = c.InSpan(1)
	if n != 1 {
		t.Fatalf("in span of 1: n=%d", n)
	}
	if c.ColLen() != 4 {
		t.Fatalf("col len = %d, want 4 (two edges, both directions)", c.ColLen())
	}
}
