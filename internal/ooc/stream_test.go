package ooc

import (
	"os"
	"path/filepath"
	"testing"

	"hep/internal/edgeio"
	"hep/internal/gen"
	"hep/internal/graph"
)

func writeGraphFile(t *testing.T, g *graph.MemGraph) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := edgeio.WriteBinaryFile(path, g.E); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestStreamRoundTrip(t *testing.T) {
	g := gen.BarabasiAlbert(500, 4, 1)
	path := writeGraphFile(t, g)

	// n = 0 discovers the vertex count; an explicit n, even above the max
	// id, is kept as declared.
	for _, tc := range []struct{ n, want int }{{0, g.NumVertices()}, {2 * g.NumVertices(), 2 * g.NumVertices()}} {
		// Chunk far smaller than the edge count so the pipeline cycles buffers.
		s, err := Open(path, tc.n, 64)
		if err != nil {
			t.Fatal(err)
		}
		if s.NumVertices() != tc.want {
			t.Fatalf("Open(n=%d): n = %d, want %d", tc.n, s.NumVertices(), tc.want)
		}
		if s.NumEdges() != g.NumEdges() {
			t.Fatalf("m = %d, want %d", s.NumEdges(), g.NumEdges())
		}
		// Restartable: two identical passes.
		for pass := 0; pass < 2; pass++ {
			i := 0
			err := s.Edges(func(u, v graph.V) bool {
				if g.E[i] != (graph.Edge{U: u, V: v}) {
					t.Fatalf("pass %d edge %d mismatch: got (%d,%d) want %v", pass, i, u, v, g.E[i])
				}
				i++
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if int64(i) != g.NumEdges() {
				t.Fatalf("pass %d saw %d edges", pass, i)
			}
		}
	}
}

func TestStreamEarlyStop(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, 2)
	s, err := Open(writeGraphFile(t, g), g.NumVertices(), 32)
	if err != nil {
		t.Fatal(err)
	}
	// Stop mid-stream repeatedly: the prefetch goroutine must shut down
	// cleanly every time and the stream must remain reusable.
	for trial := 0; trial < 10; trial++ {
		seen := 0
		if err := s.Edges(func(u, v graph.V) bool {
			seen++
			return seen < 10*(trial+1)
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Full pass still works after early stops.
	count := int64(0)
	if err := s.Edges(func(u, v graph.V) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != g.NumEdges() {
		t.Fatalf("full pass saw %d of %d edges", count, g.NumEdges())
	}
}

func TestStreamEmptyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.bin")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumVertices() != 0 || s.NumEdges() != 0 {
		t.Fatalf("empty file: n=%d m=%d", s.NumVertices(), s.NumEdges())
	}
	if err := s.Edges(func(u, v graph.V) bool { t.Fatal("yield on empty"); return false }); err != nil {
		t.Fatal(err)
	}
}

// TestStreamSkipDiscovery pins n < 0: no discovery scan, NumVertices 0,
// edges still stream (Buffered runs its own discovery scan).
func TestStreamSkipDiscovery(t *testing.T) {
	g := gen.BarabasiAlbert(100, 3, 5)
	s, err := Open(writeGraphFile(t, g), -1, 32)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumVertices() != 0 {
		t.Fatalf("n = %d, want 0 (undiscovered)", s.NumVertices())
	}
	n, m, err := discover(s)
	if err != nil {
		t.Fatal(err)
	}
	if m != g.NumEdges() || n != g.NumVertices() {
		t.Fatalf("discovery scan saw m=%d n=%d", m, n)
	}
}

func TestStreamOpenErrors(t *testing.T) {
	if _, err := Open("/nonexistent/g.bin", 0, 0); err == nil {
		t.Fatal("missing file accepted")
	}
	path := filepath.Join(t.TempDir(), "odd.bin")
	if err := os.WriteFile(path, []byte{1, 2, 3, 4, 5}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, 0, 0); err == nil {
		t.Fatal("odd-sized file accepted")
	}
}

func TestStreamTruncatedAfterOpen(t *testing.T) {
	g := gen.BarabasiAlbert(100, 3, 3)
	path := writeGraphFile(t, g)
	s, err := Open(path, g.NumVertices(), 16)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the file after open: a partial trailing record must surface
	// as an error from Edges, not silent loss.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Edges(func(u, v graph.V) bool { return true }); err == nil {
		t.Fatal("truncated mid-stream file accepted")
	}
}
