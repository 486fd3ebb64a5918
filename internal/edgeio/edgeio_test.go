package edgeio_test

import (
	"os"
	"path/filepath"
	"testing"

	"hep/internal/edgeio"
	"hep/internal/gen"
	"hep/internal/graph"
	"hep/internal/ooc"
)

// TestBinaryRoundTrip writes an edge list and reads it back whole through
// ooc.ReadFile, the reader behind hep.ReadBinaryFile.
func TestBinaryRoundTrip(t *testing.T) {
	edges := gen.BarabasiAlbert(200, 3, 1).E
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := edgeio.WriteBinaryFile(path, edges); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != int64(len(edges))*8 {
		t.Fatalf("binary size = %d, want %d", fi.Size(), len(edges)*8)
	}
	got, err := ooc.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(edges) {
		t.Fatalf("got %d edges", len(got))
	}
	for i := range edges {
		if got[i] != edges[i] {
			t.Fatalf("edge %d mismatch", i)
		}
	}
}

// TestBinaryTruncated pins that a file ending inside a record is refused.
func TestBinaryTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := os.WriteFile(path, []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ooc.ReadFile(path); err == nil {
		t.Fatal("truncated input accepted")
	}
}

func TestPartitionWriter(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "part")
	w, err := edgeio.NewPartitionWriter(prefix, 3)
	if err != nil {
		t.Fatal(err)
	}
	w.Assign(1, 2, 0)
	w.Assign(3, 4, 0)
	w.Assign(5, 6, 2)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	p0, err := ooc.ReadFile(prefix + ".0.bin")
	if err != nil {
		t.Fatal(err)
	}
	if len(p0) != 2 || p0[0] != (graph.Edge{U: 1, V: 2}) {
		t.Fatalf("p0 = %v", p0)
	}
	p1, err := ooc.ReadFile(prefix + ".1.bin")
	if err != nil {
		t.Fatal(err)
	}
	if len(p1) != 0 {
		t.Fatalf("p1 = %v", p1)
	}
	p2, err := ooc.ReadFile(prefix + ".2.bin")
	if err != nil {
		t.Fatal(err)
	}
	if len(p2) != 1 || p2[0] != (graph.Edge{U: 5, V: 6}) {
		t.Fatalf("p2 = %v", p2)
	}
}

func TestPartitionWriterBadPath(t *testing.T) {
	if _, err := edgeio.NewPartitionWriter("/nonexistent-dir/xx", 2); err == nil {
		t.Fatal("bad path accepted")
	}
}
