package ooc

import (
	"bytes"
	"encoding/binary"
	"testing"

	"hep/internal/graph"
)

// FuzzRunRoundTrip fuzzes the delta-varint run codec end to end: the input
// bytes are decoded as little-endian u32 pairs into an edge list, encoded
// with RunWriter, decoded back with RunReader (bit-exact round trip), and
// pushed through the VarintH2H spill store including its append-after-read
// contract. It also feeds the raw input to RunReader as a hostile encoded
// run, which must error or terminate cleanly — never panic or spin.
func FuzzRunRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0})                                 // edge (0,1)
	f.Add([]byte{7, 0, 0, 0, 3, 0, 0, 0, 3, 0, 0, 0, 200, 1, 0, 0})       // descending u, big jump
	f.Add([]byte{255, 255, 255, 255, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8}) // max id then wrap-around deltas
	f.Add(bytes.Repeat([]byte{42}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		edges := make([]graph.Edge, 0, len(data)/8)
		for i := 0; i+8 <= len(data); i += 8 {
			edges = append(edges, graph.Edge{
				U: graph.V(binary.LittleEndian.Uint32(data[i:])),
				V: graph.V(binary.LittleEndian.Uint32(data[i+4:])),
			})
		}

		// RunWriter → RunReader round trip is bit-exact.
		var buf bytes.Buffer
		rw := NewRunWriter(&buf)
		for _, e := range edges {
			if err := rw.Append(e.U, e.V); err != nil {
				t.Fatalf("append %v: %v", e, err)
			}
		}
		if rw.Count() != int64(len(edges)) {
			t.Fatalf("writer count %d, want %d", rw.Count(), len(edges))
		}
		if err := rw.Flush(); err != nil {
			t.Fatal(err)
		}
		if int64(buf.Len()) != rw.Bytes() {
			t.Fatalf("encoded %d bytes, writer tracked %d", buf.Len(), rw.Bytes())
		}
		var got []graph.Edge
		rr := NewRunReader(bytes.NewReader(buf.Bytes()), rw.Count(), rw.Bytes())
		if err := rr.Edges(func(u, v graph.V) bool {
			got = append(got, graph.Edge{U: u, V: v})
			return true
		}); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(got) != len(edges) {
			t.Fatalf("decoded %d edges, want %d", len(got), len(edges))
		}
		for i := range edges {
			if got[i] != edges[i] {
				t.Fatalf("edge %d: decoded %v, want %v", i, got[i], edges[i])
			}
		}

		// VarintH2H: append, read, append again (the encoder's delta state
		// is independent of the read cursor), read everything back.
		if len(edges) > 0 {
			store, err := NewVarintH2H(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			half := len(edges) / 2
			for _, e := range edges[:half] {
				if err := store.Append(e.U, e.V); err != nil {
					t.Fatal(err)
				}
			}
			n := 0
			if err := store.Edges(func(u, v graph.V) bool { n++; return true }); err != nil {
				t.Fatal(err)
			}
			if n != half {
				t.Fatalf("mid-read saw %d edges, want %d", n, half)
			}
			for _, e := range edges[half:] {
				if err := store.Append(e.U, e.V); err != nil {
					t.Fatal(err)
				}
			}
			if store.Len() != int64(len(edges)) {
				t.Fatalf("store Len %d, want %d", store.Len(), len(edges))
			}
			var back []graph.Edge
			if err := store.Edges(func(u, v graph.V) bool {
				back = append(back, graph.Edge{U: u, V: v})
				return true
			}); err != nil {
				t.Fatal(err)
			}
			for i := range edges {
				if back[i] != edges[i] {
					t.Fatalf("spill edge %d: %v, want %v", i, back[i], edges[i])
				}
			}
		}

		// Hostile input: the raw bytes as an encoded run with an arbitrary
		// claimed count. Truncation and out-of-range deltas must surface as
		// errors (or a clean early stop), never a panic; accepted edges must
		// be within the u32 vertex domain by the decoder's range check.
		count := int64(len(data))/2 + 1
		hostile := NewRunReader(bytes.NewReader(data), count, int64(len(data)))
		decoded := 0
		if err := hostile.Edges(func(u, v graph.V) bool {
			decoded++
			return true
		}); err == nil && int64(decoded) != count {
			t.Fatalf("hostile run: clean return after %d of %d claimed edges", decoded, count)
		}
	})
}
