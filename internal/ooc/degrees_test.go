package ooc

import (
	"errors"
	"testing"

	"hep/internal/gen"
	"hep/internal/graph"
	"hep/internal/shard"
)

// DegreePassParallel is kept as a forward to DegreePass for the benchmark's
// staged chains; the DegreePassParallel tests pin that it stays the
// sequential pass at any worker count.

// TestDegreePassParallelBitIdentical pins the forward to DegreePass on the
// paper's power-law stand-ins: same array length, same every entry, same
// edge count, at W ∈ {2, 4, 8}.
func TestDegreePassParallelBitIdentical(t *testing.T) {
	for _, name := range []string{"OK", "TW", "LJ"} {
		g := gen.MustDataset(name).Build(0.05)
		want, wm, err := DegreePass(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 4, 8} {
			got, m, err := DegreePassParallel(g, shard.Options{Workers: w})
			if err != nil {
				t.Fatalf("%s W=%d: %v", name, w, err)
			}
			if m != wm {
				t.Fatalf("%s W=%d: m=%d, want %d", name, w, m, wm)
			}
			if len(got) != len(want) {
				t.Fatalf("%s W=%d: len=%d, want %d", name, w, len(got), len(want))
			}
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("%s W=%d: deg[%d]=%d, want %d", name, w, v, got[v], want[v])
				}
			}
		}
	}
}

// TestDegreePassParallelDiscoversFromFile runs both passes over a chunked
// on-disk stream opened without vertex discovery (NumVertices() == 0, the
// count-less shape): the forward must discover the same domain.
func TestDegreePassParallelDiscoversFromFile(t *testing.T) {
	g := gen.CommunityPowerLaw(2000, 25, 6, 0.2, 77)
	path := writeGraphFile(t, g)
	open := func() *Stream {
		src, err := Open(path, -1, 512)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	want, wm, err := DegreePass(open())
	if err != nil {
		t.Fatal(err)
	}
	got, m, err := DegreePassParallel(open(), shard.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m != wm || len(got) != len(want) {
		t.Fatalf("m=%d len=%d, want %d/%d", m, len(got), wm, len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("deg[%d]=%d, want %d", v, got[v], want[v])
		}
	}
}

// TestDegreePassOverflowGuard lowers the representable-degree bound and
// replays a multigraph past it: the pass must fail with ErrDegreeOverflow
// instead of wrapping negative and corrupting θ(u) downstream.
func TestDegreePassOverflowGuard(t *testing.T) {
	defer func(old int32) { maxDegree = old }(maxDegree)
	maxDegree = 3

	// Vertex 0 reaches degree 4 on the fourth edge.
	g := graph.NewMemGraph(5, []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4},
	})
	if _, _, err := DegreePass(g); !errors.Is(err, ErrDegreeOverflow) {
		t.Fatalf("got %v, want ErrDegreeOverflow", err)
	}

	// Below the bound the same guard stays quiet.
	ok := graph.NewMemGraph(5, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}})
	if _, _, err := DegreePass(ok); err != nil {
		t.Fatalf("degree at the bound rejected: %v", err)
	}

	// A self-loop contributes 2, so it may not start past maxDegree-1.
	loop := graph.NewMemGraph(2, []graph.Edge{{U: 1, V: 1}, {U: 1, V: 1}})
	if _, _, err := DegreePass(loop); !errors.Is(err, ErrDegreeOverflow) {
		t.Fatalf("self-loop overflow got %v, want ErrDegreeOverflow", err)
	}
}

// TestDegreePassParallelOverflow: the forward surfaces the overflow guard at
// every worker count, as the one sentinel graph.ErrDegreeOverflow.
func TestDegreePassParallelOverflow(t *testing.T) {
	defer func(old int32) { maxDegree = old }(maxDegree)
	maxDegree = 3
	g := graph.NewMemGraph(5, []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4},
	})
	if _, _, err := DegreePassParallel(g, shard.Options{Workers: 2}); !errors.Is(err, graph.ErrDegreeOverflow) {
		t.Fatalf("got %v, want graph.ErrDegreeOverflow", err)
	}
}
