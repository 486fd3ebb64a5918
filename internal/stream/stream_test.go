package stream

import (
	"errors"
	"math"
	"testing"

	"hep/internal/gen"
	"hep/internal/graph"
	"hep/internal/part"
	"hep/internal/parttest"
	"hep/internal/shard"
)

// bestFor scores (u,v) against res's live state, as the placement pass does.
func bestFor(res *part.Result, u, v graph.V, du, dv int32, lambda float64, capacity int64) int {
	am := -1
	if res.Loads.Min() < capacity {
		am = res.Loads.ArgMin()
	}
	return bestHDRF(res.Reps, res.Counts, res.Loads.Max(), res.Loads.Min(), am, u, v, du, dv, lambda, capacity)
}

func TestHDRFPrefersReplicaOverlap(t *testing.T) {
	// Two partitions; vertex 0 replicated on p1 only. The next edge
	// (0,9) must land on p1 (replication term dominates at equal loads).
	res := part.NewResult(10, 2)
	res.Assign(0, 1, 1)
	res.Assign(2, 3, 0) // equalize loads
	deg := []int32{5, 1, 1, 1, 0, 0, 0, 0, 0, 5}
	p := bestFor(res, 0, 9, deg[0], deg[9], DefaultLambda, 1<<30)
	if p != 1 {
		t.Fatalf("HDRF chose %d, want 1", p)
	}
}

func TestHDRFBalanceTermBreaksTies(t *testing.T) {
	// No replicas anywhere: balance term must pick the emptier partition.
	res := part.NewResult(4, 2)
	res.AddLoad(0, 100)
	res.M = 100
	p := bestFor(res, 0, 1, 1, 1, DefaultLambda, 1<<30)
	if p != 1 {
		t.Fatalf("HDRF chose loaded partition %d", p)
	}
}

func TestHDRFRespectsCapacity(t *testing.T) {
	res := part.NewResult(4, 2)
	// p0 full at capacity 1; overlap pulls toward p0 but capacity forbids.
	res.Assign(0, 1, 0)
	p := bestFor(res, 0, 2, 3, 1, DefaultLambda, 1)
	if p != 1 {
		t.Fatalf("capacity violated: chose %d", p)
	}
}

func TestHDRFHighDegreeReplicatedFirst(t *testing.T) {
	// The HDRF property the name stands for: when an edge's endpoints are
	// replicated on different partitions, prefer the side of the
	// LOWER-degree vertex, replicating the high-degree one.
	res := part.NewResult(10, 2)
	res.Assign(0, 1, 0) // vertex 0 (high degree) replicated on p0
	res.Assign(2, 3, 1) // vertex 2 (low degree) replicated on p1
	deg := []int32{100, 1, 2, 1}
	// Edge (0,2): g(0,p0) = 1+(1-θ0) with θ0=100/102 ≈ small reward;
	// g(2,p1) = 1+(1-θ2) with θ2=2/102 ≈ big reward → p1 wins.
	p := bestFor(res, 0, 2, deg[0], deg[2], 0 /* no balance term */, 1<<30)
	if p != 1 {
		t.Fatalf("HDRF did not keep the low-degree vertex local: chose %d", p)
	}
}

func TestRunHDRFUsesInformedState(t *testing.T) {
	// Pre-populate replicas as if an in-memory phase placed vertices
	// 0..49 on p0 and 50..99 on p1; informed streaming of edges inside
	// each group must follow the state.
	res := part.NewResult(100, 2)
	for v := graph.V(0); v < 50; v++ {
		res.Warm(v, 0)
	}
	for v := graph.V(50); v < 100; v++ {
		res.Warm(v, 1)
	}
	deg := make([]int32, 100)
	for i := range deg {
		deg[i] = 2
	}
	edges := []graph.Edge{{U: 1, V: 2}, {U: 60, V: 61}, {U: 10, V: 20}, {U: 70, V: 80}}
	err := RunHDRFParallel(graph.NewMemGraph(100, edges), res, deg, DefaultLambda, 1.5, 4, shard.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts[0] != 2 || res.Counts[1] != 2 {
		t.Fatalf("informed streaming ignored state: counts %v", res.Counts)
	}
}

func TestDBHPlacesByLowerDegreeEndpoint(t *testing.T) {
	// Star: center 0 has max degree; every edge must hash on the leaf, so
	// edges spread across partitions (center replicated, leaves not).
	g := gen.Star(1000)
	res, err := (&DBH{}).Partition(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	nonEmpty := 0
	for _, c := range res.Counts {
		if c > 0 {
			nonEmpty++
		}
	}
	if nonEmpty != 8 {
		t.Fatalf("DBH used %d of 8 partitions on a star", nonEmpty)
	}
	// Leaves must not be replicated (each leaf has one edge).
	reps := res.ReplicaCounts()
	for v := 1; v < 1000; v++ {
		if reps[v] != 1 {
			t.Fatalf("leaf %d replicated %d times", v, reps[v])
		}
	}
	if reps[0] != 8 {
		t.Fatalf("center replicated %d times, want 8", reps[0])
	}
}

func TestGridShape(t *testing.T) {
	cases := map[int][2]int{
		16: {4, 4}, 32: {4, 8}, 12: {3, 4}, 7: {1, 7}, 1: {1, 1}, 36: {6, 6},
	}
	for k, want := range cases {
		r, c := gridShape(k)
		if r != want[0] || c != want[1] {
			t.Errorf("gridShape(%d) = (%d,%d), want %v", k, r, c, want)
		}
		if r*c != k {
			t.Errorf("gridShape(%d) does not factor k", k)
		}
	}
}

func TestGridBoundsCandidates(t *testing.T) {
	// Grid's point: each vertex's replicas stay within its row+column
	// candidate set, so RF is bounded by r+c-1.
	g := gen.BarabasiAlbert(2000, 6, 3)
	k := 16 // 4×4
	res, err := (&Grid{}).Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	maxRep := int32(0)
	for _, r := range res.ReplicaCounts() {
		if r > maxRep {
			maxRep = r
		}
	}
	if maxRep > 7 { // 4+4-1
		t.Fatalf("grid replica count %d exceeds row+col bound 7", maxRep)
	}
}

func TestGreedyCasePriorities(t *testing.T) {
	res := part.NewResult(10, 3)
	res.Assign(0, 1, 0) // both 0,1 on p0
	res.Assign(2, 3, 1) // 2 on p1
	capacity := int64(100)
	// Both endpoints on p0 → p0.
	if p := greedyChoice(res, 0, 1, capacity); p != 0 {
		t.Fatalf("both-case chose %d", p)
	}
	// One endpoint on p1 → p1 (p2 empty but 'either' beats 'least loaded').
	if p := greedyChoice(res, 2, 9, capacity); p != 1 {
		t.Fatalf("either-case chose %d", p)
	}
	// Fresh vertices → least loaded (p2).
	if p := greedyChoice(res, 8, 9, capacity); p != 2 {
		t.Fatalf("fresh-case chose %d", p)
	}
}

func TestADWISEWindowDrains(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, 4)
	for _, window := range []int{1, 8, 1024} { // incl. window > |E| remainder behavior
		a := &ADWISE{Window: window}
		res, err := a.Partition(g, 4)
		if err != nil {
			t.Fatal(err)
		}
		if res.M != g.NumEdges() {
			t.Fatalf("window=%d: assigned %d of %d", window, res.M, g.NumEdges())
		}
	}
}

func TestADWISEQualityAtLeastHDRF(t *testing.T) {
	// A window of candidates can only help versus committing immediately;
	// allow a small tolerance for heuristic noise.
	g := gen.CommunityPowerLaw(3000, 30, 6, 0.2, 5)
	hdrf, err := (&HDRF{}).Partition(g, 16)
	if err != nil {
		t.Fatal(err)
	}
	adwise, err := (&ADWISE{Window: 64}).Partition(g, 16)
	if err != nil {
		t.Fatal(err)
	}
	if adwise.ReplicationFactor() > hdrf.ReplicationFactor()*1.1 {
		t.Errorf("ADWISE RF %.3f much worse than HDRF %.3f",
			adwise.ReplicationFactor(), hdrf.ReplicationFactor())
	}
}

func TestRandomRespectsCapacity(t *testing.T) {
	g := gen.BarabasiAlbert(500, 4, 6)
	res, err := (&Random{Seed: 3, Alpha: 1.0}).Partition(g, 7)
	if err != nil {
		t.Fatal(err)
	}
	bound := (g.NumEdges()+6)/7 + 1
	for p, c := range res.Counts {
		if c > bound {
			t.Fatalf("partition %d has %d > bound %d", p, c, bound)
		}
	}
}

func TestHash32Avalanche(t *testing.T) {
	// Adjacent inputs must map to well-spread outputs.
	buckets := map[uint32]int{}
	for i := uint32(0); i < 1000; i++ {
		buckets[hash32(i)%10]++
	}
	for b, c := range buckets {
		if c < 50 || c > 200 {
			t.Fatalf("bucket %d holds %d of 1000", b, c)
		}
	}
}

// countless wraps a stream and reports an unknown edge count — the
// graph.EdgeStream "NumEdges() == 0 means count unknown" contract (e.g. an
// out-of-core stream opened without a discovery scan).
type countless struct{ graph.EdgeStream }

func (c countless) NumEdges() int64 { return 0 }

func TestCapForUnknownCountIsUnbounded(t *testing.T) {
	if got := Capacity(1.05, 0, 4); got != math.MaxInt64 {
		t.Fatalf("Capacity(m=0) = %d, want unbounded", got)
	}
	if got := Capacity(1.05, -3, 4); got != math.MaxInt64 {
		t.Fatalf("Capacity(m<0) = %d, want unbounded", got)
	}
	if got := Capacity(1.0, 100, 4); got != 25 {
		t.Fatalf("Capacity(m=100) = %d, want 25", got)
	}
}

// TestCountlessStreamNoDegradation is the capacity-zero regression pin: with
// the old capacity bound, a count-less stream yielded capacity 0, every scorer
// returned -1, and HDRF/Greedy/ADWISE silently collapsed to balance-only
// Loads.ArgMin() placement. After the fix each scorer must stay far below
// that degraded replication factor while keeping every validity contract
// (exactly-once sink, consistent replicas).
func TestCountlessStreamNoDegradation(t *testing.T) {
	g := gen.MustDataset("OK").Build(0.05)
	const k = 8

	// Reproduce the pre-fix failure mode: pure least-loaded placement.
	degraded := part.NewResult(g.NumVertices(), k)
	g.Edges(func(u, v graph.V) bool {
		degraded.Assign(u, v, degraded.Loads.ArgMin())
		return true
	})
	degradedRF := degraded.ReplicationFactor()

	for _, tc := range []struct {
		name string
		algo part.Algorithm
	}{
		{"hdrf", &HDRF{}},
		{"greedy", &Greedy{}},
		{"adwise", &ADWISE{Window: 16}},
	} {
		res, err := parttest.RunAndCheck(tc.algo, countless{g}, k, 0, 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		rf := res.ReplicationFactor()
		t.Logf("%s: countless RF %.3f vs degraded %.3f", tc.name, rf, degradedRF)
		if rf > degradedRF*0.9 {
			t.Errorf("%s: countless-stream RF %.3f within 10%% of balance-only %.3f — capacity collapse is back",
				tc.name, rf, degradedRF)
		}
	}
}

// TestHDRFCountlessMatchesCounted pins the count-less run to the counted one
// bit-for-bit: on a stream where the α·m/k bound never binds (the balance
// term keeps loads well inside it), unknown-count capacity (unbounded) and
// known-count capacity must place every edge identically.
func TestHDRFCountlessMatchesCounted(t *testing.T) {
	g := gen.MustDataset("OK").Build(0.05)
	for _, exact := range []bool{false, true} {
		run := func(src graph.EdgeStream) []part.TaggedEdge {
			col := &part.Collect{}
			h := &HDRF{ExactDegrees: exact}
			h.SetSink(col)
			if _, err := h.Partition(src, 8); err != nil {
				t.Fatal(err)
			}
			return col.Edges
		}
		counted, unknown := run(g), run(countless{g})
		if len(counted) != len(unknown) {
			t.Fatalf("exact=%v: lengths differ: %d vs %d", exact, len(counted), len(unknown))
		}
		for i := range counted {
			if counted[i] != unknown[i] {
				t.Fatalf("exact=%v: assignment %d differs: counted %v vs count-less %v",
					exact, i, counted[i], unknown[i])
			}
		}
	}
}

// TestRunHDRFParallelCountlessStream runs placement over a count-less
// stream with the trusted total passed explicitly, at Workers 4, which
// placement ignores: every edge is delivered exactly once in stream order
// and the sink sequence equals the counted one-worker run's.
func TestRunHDRFParallelCountlessStream(t *testing.T) {
	g := gen.MustDataset("OK").Build(0.05)
	deg, m, err := graph.Degrees(g)
	if err != nil {
		t.Fatal(err)
	}
	const k = 8

	seq := part.NewResult(g.NumVertices(), k)
	want := &part.Collect{}
	seq.Sink = want
	if err := RunHDRFParallel(g, seq, deg, DefaultLambda, 1.05, m, shard.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}

	res := part.NewResult(g.NumVertices(), k)
	col := &part.Collect{}
	res.Sink = col
	err = RunHDRFParallel(countless{g}, res, deg, DefaultLambda, 1.05, m,
		shard.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.M != m {
		t.Fatalf("assigned %d of %d edges", res.M, m)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := range col.Edges {
		if col.Edges[i].E != g.E[i] {
			t.Fatalf("sink delivery %d = %v, stream had %v", i, col.Edges[i].E, g.E[i])
		}
		if col.Edges[i] != want.Edges[i] {
			t.Fatalf("count-less delivery %d = %v, counted one-worker run %v", i, col.Edges[i], want.Edges[i])
		}
	}
}

// TestPartialDegreeOverflow pins the int32 guard of the partial-degree
// pass: an edge whose endpoint count cannot grow stops the
// pass with graph.ErrDegreeOverflow, as the exact degree passes do. A
// self-loop adds 2 to one count, so it stops one count earlier. Nothing of
// the batch holding the edge is delivered, and no count wraps negative.
func TestPartialDegreeOverflow(t *testing.T) {
	for _, tc := range []struct {
		name string
		full graph.V // endpoint whose count starts at the edge
		at   int32
		bad  graph.Edge
	}{
		{"edge", 3, math.MaxInt32, graph.Edge{U: 2, V: 3}},
		{"self-loop", 3, math.MaxInt32 - 1, graph.Edge{U: 3, V: 3}},
	} {
		edges := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, tc.bad, {U: 0, V: 2}}
		g := graph.NewMemGraph(4, edges)
		deg := make([]int32, 4)
		deg[tc.full] = tc.at
		res := part.NewResult(4, 2)
		col := &part.Collect{}
		res.Sink = col
		pass := hdrfPass{deg: deg, partial: true, lambda: DefaultLambda, capacity: Capacity(1.05, 4, 2)}
		err := pass.run(g, res, nil)
		if !errors.Is(err, graph.ErrDegreeOverflow) {
			t.Fatalf("%s: err = %v, want ErrDegreeOverflow", tc.name, err)
		}
		if res.M != 0 || len(col.Edges) != 0 {
			t.Errorf("%s: delivered %d edges (sink %d) from the overflowing batch", tc.name, res.M, len(col.Edges))
		}
		for v, d := range deg {
			if d < 0 {
				t.Errorf("%s: degree of %d wrapped to %d", tc.name, v, d)
			}
		}
		if deg[tc.full] != tc.at {
			t.Errorf("%s: degree of %d moved from %d to %d", tc.name, tc.full, tc.at, deg[tc.full])
		}
	}
}
