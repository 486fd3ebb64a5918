package shard_test

// Scan-abort suite: HDRF's partial-degree pass must stop the scan at its
// first out-of-range id (Run stops at the placer's first error), and the
// degree forward kept for the benchmark's staged chains must stay the
// sequential pass.

import (
	"errors"
	"testing"

	"hep/internal/gen"
	"hep/internal/graph"
	"hep/internal/shard"
	"hep/internal/stream"
)

func TestParallelDegreesBitIdentical(t *testing.T) {
	for _, name := range []string{"OK", "TW", "LJ"} {
		g := gen.MustDataset(name).Build(0.05)
		want, wm, err := graph.Degrees(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 4, 8} {
			got, m, err := shard.Degrees(g, shard.Options{Workers: w})
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

func TestParallelDegreesRangeError(t *testing.T) {
	g := graph.NewMemGraph(2, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 9}})
	if _, _, err := shard.Degrees(g, shard.Options{Workers: 4}); !errors.Is(err, graph.ErrVertexRange) {
		t.Fatalf("got %v, want ErrVertexRange", err)
	}
}

// countingStream counts how many edges the consumer actually pulled. It
// embeds the EdgeStream interface, so it never lends chunks: Run copies
// its edges into a slab edge by edge.
type countingStream struct {
	graph.EdgeStream
	yielded int64
}

func (s *countingStream) Edges(yield func(u, v graph.V) bool) error {
	return s.EdgeStream.Edges(func(u, v graph.V) bool {
		s.yielded++
		return yield(u, v)
	})
}

// TestPartialDegreeHDRFAbortsScanOnError: an out-of-range id seen by HDRF's
// partial-degree pass must stop the scan promptly (AbortStream), not after
// streaming the whole input — the prompt-failure behavior of the counting
// passes.
func TestPartialDegreeHDRFAbortsScanOnError(t *testing.T) {
	const total = 200_000
	edges := make([]graph.Edge, total)
	edges[0] = graph.Edge{U: 0, V: 1 << 30} // out of range immediately
	for i := 1; i < total; i++ {
		edges[i] = graph.Edge{U: graph.V(i % 64), V: graph.V((i + 1) % 64)}
	}
	src := &countingStream{EdgeStream: graph.NewMemGraph(64, edges)}
	h := &stream.HDRF{}
	if _, err := h.Partition(src, 4); !errors.Is(err, graph.ErrVertexRange) {
		t.Fatalf("got %v, want ErrVertexRange", err)
	}
	if src.yielded > total/2 {
		t.Fatalf("scanned %d of %d edges after the error; abort did not propagate", src.yielded, total)
	}
}
