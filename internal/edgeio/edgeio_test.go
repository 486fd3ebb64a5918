package edgeio

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"hep/internal/gen"
	"hep/internal/graph"
)

func TestBinaryRoundTrip(t *testing.T) {
	edges := gen.BarabasiAlbert(200, 3, 1).E
	var buf bytes.Buffer
	if err := WriteBinary(&buf, edges); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != len(edges)*8 {
		t.Fatalf("binary size = %d, want %d", buf.Len(), len(edges)*8)
	}
	got, err := ReadBinary(&buf)
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

func TestBinaryTruncated(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Fatal("truncated input accepted")
	}
}

func TestTextRoundTripAndComments(t *testing.T) {
	in := "# comment\n% header\n\n1 2\n3 4 extra-ignored\n"
	got, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != (graph.Edge{U: 1, V: 2}) || got[1] != (graph.Edge{U: 3, V: 4}) {
		t.Fatalf("got %v", got)
	}
	var buf bytes.Buffer
	if err := WriteText(&buf, got); err != nil {
		t.Fatal(err)
	}
	again, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 2 {
		t.Fatalf("round trip lost edges: %v", again)
	}
}

func TestTextErrors(t *testing.T) {
	if _, err := ReadText(strings.NewReader("abc def\n")); err == nil {
		t.Fatal("non-numeric accepted")
	}
	if _, err := ReadText(strings.NewReader("12\n")); err == nil {
		t.Fatal("single-field line accepted")
	}
	if _, err := ReadText(strings.NewReader("1 99999999999\n")); err == nil {
		t.Fatal("overflow accepted")
	}
}

func TestPartitionWriter(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "part")
	w, err := NewPartitionWriter(prefix, 3)
	if err != nil {
		t.Fatal(err)
	}
	w.Assign(1, 2, 0)
	w.Assign(3, 4, 0)
	w.Assign(5, 6, 2)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	p0, err := ReadBinaryFile(prefix + ".0.bin")
	if err != nil {
		t.Fatal(err)
	}
	if len(p0) != 2 || p0[0] != (graph.Edge{U: 1, V: 2}) {
		t.Fatalf("p0 = %v", p0)
	}
	p1, err := ReadBinaryFile(prefix + ".1.bin")
	if err != nil {
		t.Fatal(err)
	}
	if len(p1) != 0 {
		t.Fatalf("p1 = %v", p1)
	}
	p2, err := ReadBinaryFile(prefix + ".2.bin")
	if err != nil {
		t.Fatal(err)
	}
	if len(p2) != 1 || p2[0] != (graph.Edge{U: 5, V: 6}) {
		t.Fatalf("p2 = %v", p2)
	}
}

func TestPartitionWriterBadPath(t *testing.T) {
	if _, err := NewPartitionWriter("/nonexistent-dir/xx", 2); err == nil {
		t.Fatal("bad path accepted")
	}
}
