package ooc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"hep/internal/graph"
)

// FuzzEdgeIO feeds every reader of the binary edge format the same random
// file at a random slab size: Open with n declared, discovered and skipped,
// OpenMmap, an MmapStream forced onto the chunked reader, and ReadFile (the
// reader behind hep.ReadBinaryFile). Each must refuse a size that is not a
// multiple of 8; otherwise each must yield exactly the little-endian decode
// of the bytes, in order, through Edges and Chunks, discovery must report
// max id + 1 (or fail, on a 32-bit build, where that does not fit in an
// int), and a stop after a random edge must return nil and leave the stream
// re-readable. Only the readers run: ids reach 2^32−1, where anything
// allocating per vertex would try 16 GiB.
func FuzzEdgeIO(f *testing.F) {
	many := make([]byte, 8*1000)
	for i := range many {
		many[i] = byte(i * 7 % 251)
	}
	f.Add([]byte{}, uint16(0), uint16(0))
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0}, uint16(1), uint16(0))                // edge (0,1)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7}, uint16(3), uint16(1))                   // 7 bytes
	f.Add(bytes.Repeat([]byte{0xff}, 24), uint16(2), uint16(1))                // id 2^32−1
	f.Add(append(bytes.Repeat([]byte{9}, 800), 1, 2, 3), uint16(5), uint16(0)) // 803 bytes
	f.Add(many, uint16(7), uint16(500))
	f.Add(many, uint16(100), uint16(999)) // slabs divide the file
	f.Add(many, uint16(0), uint16(3))     // default slab size, clamped to the file

	f.Fuzz(func(t *testing.T, data []byte, chunk, stop uint16) {
		path := filepath.Join(t.TempDir(), "g.bin")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		chunkEdges := int(chunk) // 0 selects the default
		if len(data)%8 != 0 {
			for _, n := range []int{0, 5, -1} {
				if _, err := Open(path, n, chunkEdges); err == nil {
					t.Fatalf("Open(n=%d) accepted a %d-byte file", n, len(data))
				}
			}
			if s, err := OpenMmap(path, 0); err == nil {
				s.Close()
				t.Fatalf("OpenMmap accepted a %d-byte file", len(data))
			}
			if _, err := ReadFile(path); err == nil {
				t.Fatalf("ReadFile accepted a %d-byte file", len(data))
			}
			return
		}
		want := make([]graph.Edge, len(data)/8)
		top := int64(0) // max id + 1
		for i := range want {
			want[i] = graph.Edge{
				U: binary.LittleEndian.Uint32(data[8*i:]),
				V: binary.LittleEndian.Uint32(data[8*i+4:]),
			}
			top = max(top, int64(want[i].U)+1, int64(want[i].V)+1)
		}
		// Where max id + 1 does not fit in an int, discovery must fail, and
		// the discovering readers below skip discovery instead.
		discoverN, wantN := 0, int(top)
		if top > math.MaxInt {
			if _, err := Open(path, 0, chunkEdges); err == nil {
				t.Fatalf("Open(n=0) accepted max id %d", top-1)
			}
			if s, err := OpenMmap(path, 0); err == nil {
				s.Close()
				t.Fatalf("OpenMmap(n=0) accepted max id %d", top-1)
			}
			discoverN, wantN = -1, 0
		}
		declared := int(min(top+3, math.MaxInt))

		whole, err := ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if cap(whole) != len(want) {
			t.Fatalf("ReadFile: cap %d for %d edges", cap(whole), len(want))
		}
		sameEdges(t, "ReadFile", whole, want)

		var discovered *Stream
		for i, tc := range []struct{ n, want int }{{discoverN, wantN}, {declared, declared}, {-1, 0}} {
			s, err := Open(path, tc.n, chunkEdges)
			if err != nil {
				t.Fatal(err)
			}
			if s.NumVertices() != tc.want {
				t.Fatalf("Open(n=%d): NumVertices %d, want %d", tc.n, s.NumVertices(), tc.want)
			}
			checkReader(t, fmt.Sprintf("Open(n=%d)", tc.n), s, want, int(stop))
			if i == 0 {
				discovered = s
			}
		}

		ms, err := OpenMmap(path, discoverN)
		if err != nil {
			t.Fatal(err)
		}
		defer ms.Close()
		if ms.NumVertices() != wantN {
			t.Fatalf("OpenMmap: NumVertices %d, want %d", ms.NumVertices(), wantN)
		}
		checkReader(t, "OpenMmap", ms, want, int(stop))
		checkReader(t, "MmapStream(chunked)", &MmapStream{file: *discovered}, want, int(stop))
	})
}

// checkReader runs Edges and Chunks passes over s against want, then stops
// each after edge stop % len(want) and requires a nil error and a full,
// identical pass afterwards.
func checkReader(t *testing.T, label string, s graph.ChunkStream, want []graph.Edge, stop int) {
	t.Helper()
	if s.NumEdges() != int64(len(want)) {
		t.Fatalf("%s: NumEdges %d, want %d", label, s.NumEdges(), len(want))
	}
	edgesPass := func() []graph.Edge {
		var got []graph.Edge
		if err := s.Edges(func(u, v graph.V) bool {
			got = append(got, graph.Edge{U: u, V: v})
			return true
		}); err != nil {
			t.Fatalf("%s: Edges: %v", label, err)
		}
		return got
	}
	sameEdges(t, label+" Edges", edgesPass(), want)
	sameEdges(t, label+" Chunks", collectChunks(t, s), want)
	if len(want) == 0 {
		return
	}
	stop %= len(want)
	seen := 0
	if err := s.Edges(func(u, v graph.V) bool {
		seen++
		return seen <= stop
	}); err != nil || seen != stop+1 {
		t.Fatalf("%s: Edges stopped after edge %d: err %v, %d edges yielded", label, stop, err, seen)
	}
	seen = 0
	if err := s.Chunks(func(edges []graph.Edge, release func()) bool {
		seen += len(edges)
		release()
		return seen <= stop
	}); err != nil {
		t.Fatalf("%s: Chunks stopped after edge %d: %v", label, stop, err)
	}
	sameEdges(t, label+" Edges after stops", edgesPass(), want)
}

// TestSwapBytes runs the big-endian byte-order fix on crafted records. A
// big-endian host reads each little-endian id into a slab with its bytes
// reversed; swapBytes must turn that into the id. Little-endian hosts never
// call it, so this is its only run there.
func TestSwapBytes(t *testing.T) {
	raw := []byte{
		0x01, 0x02, 0x03, 0x04, 0xff, 0x00, 0x00, 0x80,
		0x00, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff,
		0x2a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00,
	}
	loaded := make([]graph.Edge, len(raw)/8)
	want := make([]graph.Edge, len(raw)/8)
	for i := range loaded {
		loaded[i] = graph.Edge{U: binary.BigEndian.Uint32(raw[8*i:]), V: binary.BigEndian.Uint32(raw[8*i+4:])}
		want[i] = graph.Edge{U: binary.LittleEndian.Uint32(raw[8*i:]), V: binary.LittleEndian.Uint32(raw[8*i+4:])}
	}
	swapBytes(loaded)
	sameEdges(t, "swapBytes", loaded, want)
}

// TestStreamSlabsOnDemand pins the chunked reader's slab budget: a file
// smaller than one slab costs one slab of its size; a pass whose consumer
// releases each slab before its yield returns, as every per-edge pass
// does, costs one slab; and a lending pass whose consumer keeps two slabs
// lent at a time costs exactly three, since the reader allocates a slab
// only while every earlier one is held.
// Allocation is read from the heap's running total, taking the least of
// three tries to shed unrelated allocations.
func TestStreamSlabsOnDemand(t *testing.T) {
	const chunk = 1 << 13 // 64 KiB slabs dwarf a pass's other allocations
	const slabBytes = chunk * 8
	write := func(edges int) string {
		path := filepath.Join(t.TempDir(), "g.bin")
		data := make([]byte, edges*8)
		for i := range data {
			data[i] = byte(i % 61)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	allocated := func(pass func() error) uint64 {
		least := ^uint64(0)
		for try := 0; try < 3; try++ {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			if err := pass(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	all := func(u, v graph.V) bool { return true }

	small, err := Open(write(chunk/2), -1, chunk)
	if err != nil {
		t.Fatal(err)
	}
	fileBytes := uint64(chunk / 2 * 8)
	if got := allocated(func() error { return small.Edges(all) }); got >= fileBytes+fileBytes/2 {
		t.Errorf("pass over a file smaller than one slab allocated %d bytes; one slab is %d", got, fileBytes)
	}

	big, err := Open(write(10*chunk+5), -1, chunk)
	if err != nil {
		t.Fatal(err)
	}
	if got := allocated(func() error { return big.Edges(all) }); got >= slabBytes+slabBytes/2 {
		t.Errorf("Edges pass allocated %d bytes; one slab is %d", got, slabBytes)
	}

	distinct := 0
	holding := func() error {
		slabs := map[*graph.Edge]bool{}
		var held []func()
		err := big.Chunks(func(edges []graph.Edge, release func()) bool {
			slabs[&edges[:cap(edges)][0]] = true
			//hep:xfer kept lent until two newer slabs arrive; the last two are released after the pass
			held = append(held, release)
			if len(held) > 2 {
				held[0]()
				held = held[1:]
			}
			return true
		})
		for _, release := range held {
			release()
		}
		distinct = len(slabs)
		return err
	}
	if got := allocated(holding); got >= 3*slabBytes+slabBytes/2 {
		t.Errorf("lending pass holding two slabs allocated %d bytes; three slabs are %d", got, 3*slabBytes)
	}
	if distinct != 3 {
		t.Errorf("a pass holding two slabs lent %d distinct slabs, want 3", distinct)
	}
}
