package refine

import (
	"errors"
	"fmt"
	"testing"

	"hep/internal/gen"
	"hep/internal/graph"
	"hep/internal/obs"
	"hep/internal/part"
	"hep/internal/pstate"
	"hep/internal/stream"
)

// buildState materializes a Result consistent with an explicit assignment —
// the three-way input contract Run and SplitMerge operate on.
func buildState(n, k int, edges []graph.Edge, parts []int32) *part.Result {
	res := part.NewResult(n, k)
	for i, e := range edges {
		res.Assign(e.U, e.V, int(parts[i]))
	}
	return res
}

// capture runs algo with the capture sink attached and returns the full
// refinement input state.
func capture(t *testing.T, algo part.Algorithm, g graph.EdgeStream, k int) (*part.Result, *Capture) {
	t.Helper()
	rec := &Capture{}
	ss := algo.(part.SinkSetter)
	ss.SetSink(rec)
	defer ss.SetSink(nil)
	res, err := algo.Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	return res, rec
}

// TestRunRejectsDeadTable is the regression for the dead-table panic class:
// a Result whose replica table is nil (hand-built) or the zero-value Table
// must be rejected with ErrNoTable, never reach the scan.
func TestRunRejectsDeadTable(t *testing.T) {
	edges := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}
	parts := []int32{0, 1}

	bare := &part.Result{N: 3, K: 2, M: 2}
	if _, err := Run(bare, edges, parts, Options{}); !errors.Is(err, ErrNoTable) {
		t.Errorf("nil-table result: got %v, want ErrNoTable", err)
	}
	if _, _, err := SplitMerge(bare, edges, parts, 1, Options{}); !errors.Is(err, ErrNoTable) {
		t.Errorf("nil-table merge: got %v, want ErrNoTable", err)
	}

	zero := buildState(3, 2, edges, parts)
	zero.Reps = &pstate.Table{}
	if _, err := Run(zero, edges, parts, Options{}); !errors.Is(err, ErrNoTable) {
		t.Errorf("zero-table result: got %v, want ErrNoTable", err)
	}

	if _, err := Run(nil, edges, parts, Options{}); err == nil {
		t.Error("nil result accepted")
	}
	ok := buildState(3, 2, edges, parts)
	if _, err := Run(ok, edges, parts[:1], Options{}); err == nil {
		t.Error("edges/parts length mismatch accepted")
	}
	if _, err := Run(ok, edges[:1], parts[:1], Options{}); err == nil {
		t.Error("assignment shorter than res.M accepted")
	}
}

// TestRunNoPositiveMoveIsNoop pins the strictly-positive gate: two triangles
// joined by a bridge on the sparse side offer only zero-gain moves (every
// evacuation drags a new replica along), so the pass must change nothing.
func TestRunNoPositiveMoveIsNoop(t *testing.T) {
	edges := []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}, // partition 0 triangle
		{U: 3, V: 4}, {U: 3, V: 5}, {U: 4, V: 5}, // partition 1 triangle
		{U: 2, V: 3}, // bridge on partition 1: gain(2,1→0) = 1−|{3∉0}| = 0
	}
	parts := []int32{0, 0, 0, 1, 1, 1, 1}
	res := buildState(6, 2, edges, parts)
	before := res.Reps.TotalReplicas()

	st, err := Run(res, edges, parts, Options{Workers: 1, Eps: 10})
	if err != nil {
		t.Fatal(err)
	}
	if st.Applied != 0 || st.MovedEdges != 0 {
		t.Fatalf("zero-gain moves applied; stats %+v", st)
	}
	if after := res.Reps.TotalReplicas(); after != before {
		t.Errorf("replicas changed %d → %d", before, after)
	}
	if parts[6] != 1 {
		t.Errorf("bridge edge reassigned to %d", parts[6])
	}
}

// TestRunEvacuatesStrandedEdge pins a strictly positive move: vertices 2 and
// 3 both host {0,1}, and the bridge (2,3) is 3's only partition-0 edge.
// Evacuating 3 from 0 moves the bridge to partition 1, which already hosts
// both endpoints: gain(3, 0→1) = 1 − 0 = 1, one replica saved.
func TestRunEvacuatesStrandedEdge(t *testing.T) {
	edges := []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}, // partition 0 triangle
		{U: 3, V: 4}, {U: 3, V: 5}, {U: 4, V: 5}, // partition 1 triangle
		{U: 2, V: 6}, {U: 6, V: 3}, // 2 and 6 on partition 1 as well
		{U: 2, V: 3}, // bridge on partition 0
	}
	parts := []int32{0, 0, 0, 1, 1, 1, 1, 1, 0}
	res := buildState(7, 2, edges, parts)
	before := res.Reps.TotalReplicas()

	st, err := Run(res, edges, parts, Options{Workers: 1, Eps: 10})
	if err != nil {
		t.Fatal(err)
	}
	if st.Applied == 0 || st.MovedEdges == 0 {
		t.Fatalf("expected an applied move, stats %+v", st)
	}
	after := res.Reps.TotalReplicas()
	if after >= before {
		t.Errorf("expected strict replica improvement, got %d → %d", before, after)
	}
	if err := res.Validate(); err != nil {
		t.Error(err)
	}
}

// TestRunDeterministicSequential pins the Workers=1 contract: two sequential
// runs from identical inputs produce identical assignments and stats.
func TestRunDeterministicSequential(t *testing.T) {
	g := gen.MustDataset("OK").Build(0.05)
	run := func() ([]int32, Stats) {
		res, rec := capture(t, &stream.HDRF{}, g, 16)
		st, err := Run(res, rec.Edges, rec.Parts, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return rec.Parts, st
	}
	p1, s1 := run()
	p2, s2 := run()
	if s1 != s2 {
		t.Fatalf("stats diverged: %+v vs %+v", s1, s2)
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("assignment diverged at edge %d: %d vs %d", i, p1[i], p2[i])
		}
	}
	if s1.Applied == 0 {
		t.Error("sequential refinement applied no moves on the OK stand-in")
	}
}

// TestRunCountersMatchStats pins the counter fold of a two-worker pass:
// the workers' tallies, added once after each join, equal the pass's Stats.
func TestRunCountersMatchStats(t *testing.T) {
	g := gen.MustDataset("OK").Build(0.05)
	res, rec := capture(t, &stream.HDRF{}, g, 16)
	o := obs.New()
	st, err := Run(res, rec.Edges, rec.Parts, Options{Workers: 2, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	c := o.Counters()
	for _, tc := range []struct {
		id   obs.CounterID
		want int64
	}{
		{obs.CtrRefineRounds, int64(st.Rounds)},
		{obs.CtrMovesApplied, st.Applied},
		{obs.CtrMovesRejectedBalance, st.RejectedBalance},
		{obs.CtrGainRecomputes, st.GainRecomputes},
	} {
		if got := c.Total(tc.id); got != tc.want {
			t.Errorf("%s = %d, Stats say %d", tc.id, got, tc.want)
		}
	}
	if st.Applied == 0 {
		t.Error("refinement applied no moves on the OK stand-in")
	}
}

// TestRunSelfLoops verifies self loops survive refinement: a loop edge is a
// single incidence entry, moves with its vertex, and never double-counts.
func TestRunSelfLoops(t *testing.T) {
	edges := []graph.Edge{
		{U: 0, V: 0}, {U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 2}, {U: 2, V: 0},
	}
	parts := []int32{0, 0, 1, 1, 0}
	res := buildState(3, 2, edges, parts)
	if _, err := Run(res, edges, parts, Options{Workers: 2, Eps: 10}); err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, 2)
	for _, p := range parts {
		counts[p]++
	}
	for p, c := range counts {
		if c != res.Counts[p] {
			t.Errorf("partition %d: tally %d, result %d", p, c, res.Counts[p])
		}
	}
	if err := res.Validate(); err != nil {
		t.Error(err)
	}
}

// TestBalanceBound pins the guard arithmetic, including the never-stricter-
// than-input clause.
func TestBalanceBound(t *testing.T) {
	if got := BalanceBound(1000, 4, 0.05, 0); got != 263 {
		t.Errorf("BalanceBound(1000,4,0.05,0) = %d, want 263", got)
	}
	if got := BalanceBound(1000, 4, 0.05, 400); got != 400 {
		t.Errorf("input max 400 must win over 263, got %d", got)
	}
	if got := BalanceBound(1000, 0, 0.05, 0); got != 1000 {
		t.Errorf("k=0 degenerate bound = %d, want m", got)
	}
}

// TestSplitMergeFolds pins the merge mode: an over-partitioned run folds to
// exactly kTarget groups with a consistent result, and degenerate targets
// are rejected.
func TestSplitMergeFolds(t *testing.T) {
	g := gen.MustDataset("LJ").Build(0.05)
	k, factor := 8, 2
	res, rec := capture(t, &stream.HDRF{}, g, k*factor)

	merged, st, err := SplitMerge(res, rec.Edges, rec.Parts, k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if merged.K != k {
		t.Fatalf("merged to %d groups, want %d", merged.K, k)
	}
	if st.Merges != k*factor-k {
		t.Errorf("recorded %d merges, want %d", st.Merges, k*factor-k)
	}
	if merged.M != res.M {
		t.Errorf("merged result holds %d edges, input %d", merged.M, res.M)
	}
	if err := merged.Validate(); err != nil {
		t.Error(err)
	}
	for i, p := range rec.Parts {
		if p < 0 || int(p) >= k {
			t.Fatalf("edge %d relabeled out of range: %d", i, p)
		}
	}
	// Merging unions vertex sets: RF over kTarget must not exceed the
	// over-partitioned RF.
	if merged.ReplicationFactor() > res.ReplicationFactor() {
		t.Errorf("merge raised RF %.4f → %.4f", res.ReplicationFactor(), merged.ReplicationFactor())
	}

	if _, _, err := SplitMerge(merged, rec.Edges, rec.Parts, 0, Options{}); err == nil {
		t.Error("kTarget=0 accepted")
	}
	if _, _, err := SplitMerge(merged, rec.Edges, rec.Parts, k+1, Options{}); err == nil {
		t.Error("merging upward accepted")
	}
	if same, _, err := SplitMerge(merged, rec.Edges, rec.Parts, k, Options{}); err != nil || same != merged {
		t.Errorf("kTarget == K must be the identity, got (%v, %v)", same, err)
	}
}

// TestWrapSizesCaptureOnce pins the capture's single allocation: a stream
// that reports its edge count m hands the pass a capture of capacity
// exactly m, with no append growth past it.
func TestWrapSizesCaptureOnce(t *testing.T) {
	g := gen.MustDataset("OK").Build(0.05)
	m := int(g.NumEdges())
	edgesCap, partsCap := -1, -1
	hook := func(round int, _ *part.Result, edges []graph.Edge, parts []int32) error {
		if round == 0 {
			edgesCap, partsCap = cap(edges), cap(parts)
		}
		return nil
	}
	if _, err := Wrap(&stream.HDRF{}, Options{Workers: 1, RoundHook: hook}).Partition(g, 16); err != nil {
		t.Fatal(err)
	}
	if edgesCap != m || partsCap != m {
		t.Errorf("capture capacity %d edges, %d parts; the stream reports m = %d", edgesCap, partsCap, m)
	}
}

// TestWrapRejectsBadInputs pins the wrapper's fail-fast surface: invalid
// modes and sink-less algorithms error before the inner run.
func TestWrapRejectsBadInputs(t *testing.T) {
	g := graph.NewMemGraph(2, []graph.Edge{{U: 0, V: 1}})
	if _, err := Wrap(&stream.HDRF{}, Options{Mode: "frob"}).Partition(g, 2); err == nil {
		t.Error("unknown mode accepted")
	}
	if _, err := Wrap(&stream.HDRF{}, Options{}).Partition(g, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Wrap(noSink{}, Options{}).Partition(g, 2); err == nil {
		t.Error("sink-less algorithm accepted")
	}
}

type noSink struct{}

func (noSink) Name() string { return "nosink" }
func (noSink) Partition(graph.EdgeStream, int) (*part.Result, error) {
	return nil, fmt.Errorf("unreachable")
}

// TestWrapName pins the composed display name the bench tables key on.
func TestWrapName(t *testing.T) {
	if got := Wrap(&stream.HDRF{}, Options{}).Name(); got != "HDRF+moves" {
		t.Errorf("Name() = %q", got)
	}
	if got := Wrap(&stream.HDRF{}, Options{Mode: ModeSplitMerge}).Name(); got != "HDRF+split-merge" {
		t.Errorf("Name() = %q", got)
	}
}

// TestValidMode pins the mode vocabulary (empty string is the default).
func TestValidMode(t *testing.T) {
	for mode, want := range map[string]bool{"": true, ModeMoves: true, ModeSplitMerge: true, "frob": false} {
		if got := ValidMode(mode); got != want {
			t.Errorf("ValidMode(%q) = %v", mode, got)
		}
	}
}
