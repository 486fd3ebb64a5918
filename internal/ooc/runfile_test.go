package ooc

import (
	"bytes"
	"testing"

	"hep/internal/gen"
	"hep/internal/graph"
)

func TestRunRoundTrip(t *testing.T) {
	g := gen.CommunityPowerLaw(1000, 10, 6, 0.2, 11)
	var buf bytes.Buffer
	w := NewRunWriter(&buf)
	for _, e := range g.E {
		if err := w.Append(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != g.NumEdges() {
		t.Fatalf("count = %d", w.Count())
	}
	// Delta-varint must beat the raw 8-byte format on a locality-friendly
	// edge list (generators emit edges grouped by left endpoint).
	if int64(buf.Len()) >= g.NumEdges()*8 {
		t.Fatalf("encoded %d bytes, raw would be %d", buf.Len(), g.NumEdges()*8)
	}
	if w.Bytes() != int64(buf.Len()) {
		t.Fatalf("Bytes() = %d, buffer holds %d", w.Bytes(), buf.Len())
	}

	r := NewRunReader(&buf, w.Count(), w.Bytes())
	i := 0
	err := r.Edges(func(u, v graph.V) bool {
		if g.E[i] != (graph.Edge{U: u, V: v}) {
			t.Fatalf("edge %d mismatch", i)
		}
		i++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if int64(i) != g.NumEdges() {
		t.Fatalf("decoded %d edges", i)
	}
}

func TestRunExtremeIds(t *testing.T) {
	// Max/min ids and non-monotone jumps exercise the zigzag deltas.
	edges := []graph.Edge{
		{U: 0, V: ^graph.V(0)},
		{U: ^graph.V(0), V: 0},
		{U: 1, V: 1},
		{U: 1 << 30, V: 3},
	}
	var buf bytes.Buffer
	w := NewRunWriter(&buf)
	for _, e := range edges {
		if err := w.Append(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	var got []graph.Edge
	err := NewRunReader(&buf, w.Count(), w.Bytes()).Edges(func(u, v graph.V) bool {
		got = append(got, graph.Edge{U: u, V: v})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range edges {
		if got[i] != edges[i] {
			t.Fatalf("edge %d: got %v want %v", i, got[i], edges[i])
		}
	}
}

func TestRunTruncated(t *testing.T) {
	var buf bytes.Buffer
	w := NewRunWriter(&buf)
	for i := graph.V(0); i < 10; i++ {
		if err := w.Append(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-1]
	err := NewRunReader(bytes.NewReader(cut), 10, int64(len(cut))).Edges(func(u, v graph.V) bool { return true })
	if err == nil {
		t.Fatal("truncated run accepted")
	}
}

// TestVarintH2H pins the graph.H2HStore contract: append, re-iterate
// twice, append after a read, close removes the backing file.
func TestVarintH2H(t *testing.T) {
	s, err := NewVarintH2H(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var _ graph.H2HStore = s
	for i := graph.V(0); i < 100; i++ {
		if err := s.Append(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 100 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.Bytes() >= 100*8 {
		t.Fatalf("varint store (%d bytes) not smaller than raw (%d)", s.Bytes(), 100*8)
	}
	for pass := 0; pass < 2; pass++ {
		count := graph.V(0)
		err := s.Edges(func(u, v graph.V) bool {
			if u != count || v != count+1 {
				t.Fatalf("pass %d: edge (%d,%d) at pos %d", pass, u, v, count)
			}
			count++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if count != 100 {
			t.Fatalf("pass %d saw %d edges", pass, count)
		}
	}
	// Appending must resume correctly after a read pass.
	if err := s.Append(1000, 1001); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 101 {
		t.Fatalf("len after late append = %d", s.Len())
	}
	last := graph.Edge{}
	n := 0
	if err := s.Edges(func(u, v graph.V) bool {
		last = graph.Edge{U: u, V: v}
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != 101 || last != (graph.Edge{U: 1000, V: 1001}) {
		t.Fatalf("after append: n=%d last=%v", n, last)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
