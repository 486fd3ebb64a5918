package edgeio_test

import (
	"path/filepath"
	"testing"

	"hep/internal/edgeio"
	"hep/internal/gen"
	"hep/internal/graph"
	"hep/internal/ooc"
)

// TestFileStreamExplicitN streams a file written by WriteBinaryFile through
// ooc.Stream, the reader behind hep.OpenBinaryFile, with a declared vertex
// count above the largest id: the count is kept as declared, and the stream
// stays restartable after an early stop.
func TestFileStreamExplicitN(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.bin")
	g := gen.CommunityPowerLaw(500, 10, 6, 0.2, 9)
	if err := edgeio.WriteBinaryFile(path, g.E); err != nil {
		t.Fatal(err)
	}
	// Chunk far smaller than the edge count so the early stop lands mid-pipeline.
	f, err := ooc.Open(path, 2*g.NumVertices(), 64)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumVertices() != 2*g.NumVertices() {
		t.Fatalf("explicit n not honored: %d", f.NumVertices())
	}
	// Early stop, then two full passes: restartability must survive.
	if err := f.Edges(func(u, v graph.V) bool { return false }); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		var count int64
		if err := f.Edges(func(u, v graph.V) bool { count++; return true }); err != nil {
			t.Fatal(err)
		}
		if count != g.NumEdges() {
			t.Fatalf("pass %d saw %d of %d edges", pass, count, g.NumEdges())
		}
	}
}
