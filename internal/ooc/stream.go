// Package ooc is the out-of-core engine: a bounded-memory pipeline for
// partitioning graphs that do not fit in RAM. It provides the one reader of
// binary edge-list files (Stream: a read-ahead goroutine reads the file
// straight into lent []graph.Edge slabs, and every per-edge pass walks those
// slabs; MmapStream lends the mapping instead where it can; ReadFile loads a
// whole file), delta-varint-encoded on-disk edge runs (also usable as the
// H2H spill store of paper §3.2.1), and a buffered streaming partitioner
// (Buffered) in the spirit of buffered streaming edge partitioning (Chhabra
// et al., 2024): fill a bounded edge buffer, partition the whole batch with
// neighborhood expansion seeded by the global replica state, flush, repeat.
// Buffered runs one sequential path, so its output and the buffer a byte
// budget buys do not depend on a worker count.
//
// The resident set of every component is bounded by O(|V|) vertex state
// (local-id map, replica bitsets) plus a configurable buffer; the edge list
// itself is never materialized.
package ooc

import (
	"fmt"
	"io"
	"math/bits"
	"os"
	"sync/atomic"
	"unsafe"

	"hep/internal/graph"
)

// DefaultChunkEdges is the default slab size of the chunked reader: 32Ki
// edges, 256 KiB per slab, at most lentSlabs of them per pass.
const DefaultChunkEdges = 1 << 15

// lentSlabs caps the slabs one pass of the chunked reader allocates. They
// are allocated on demand: a file smaller than one slab costs one, and a
// consumer that releases each slab before taking the next usually costs two
// (one being walked, one being read). The third is the lending slack — while
// a slow consumer (a worker still placing the batches sliced out of one
// slab) holds a slab past the next yield, the read-ahead goroutine still has
// a slab to read into, so read-ahead never stalls on a lent buffer.
const lentSlabs = 3

// The wire format is graph.Edge's memory layout — two uint32s, U first — so
// the reader reads records straight into edge slabs. This line stops
// compiling if that layout ever changes.
var _ = [1]struct{}{}[unsafe.Sizeof(graph.Edge{})-8+unsafe.Offsetof(graph.Edge{}.V)-4]

// hostLittleEndian reports whether the running machine stores uint32s in
// the file's byte order, so records read into a slab are already native.
var hostLittleEndian = func() bool {
	x := uint32(0x01020304)
	return *(*byte)(unsafe.Pointer(&x)) == 0x04
}()

// edgeBytes views edges as the bytes of their records.
func edgeBytes(edges []graph.Edge) []byte {
	if len(edges) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&edges[0])), len(edges)*8)
}

// readEdges fills edges with the next records of r, in native byte order.
func readEdges(r io.Reader, edges []graph.Edge) error {
	if _, err := io.ReadFull(r, edgeBytes(edges)); err != nil {
		return err
	}
	if !hostLittleEndian {
		swapBytes(edges)
	}
	return nil
}

// swapBytes reverses the byte order of every id in place: on a big-endian
// host it turns little-endian records into native ids.
func swapBytes(edges []graph.Edge) {
	for i := range edges {
		edges[i].U = bits.ReverseBytes32(edges[i].U)
		edges[i].V = bits.ReverseBytes32(edges[i].V)
	}
}

// edgeCount is the number of 8-byte records in a file of size bytes.
func edgeCount(path string, size int64) (int64, error) {
	if size%8 != 0 {
		return 0, fmt.Errorf("ooc: %s: size %d not a multiple of 8", path, size)
	}
	return size / 8, nil
}

// ReadFile reads a whole binary edge-list file into one exactly-sized
// slice; a size that is not a multiple of 8 is an error.
func ReadFile(path string) ([]graph.Edge, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	m, err := edgeCount(path, fi.Size())
	if err != nil {
		return nil, err
	}
	edges := make([]graph.Edge, m)
	if err := readEdges(f, edges); err != nil {
		return nil, fmt.Errorf("ooc: %s: %w", path, err)
	}
	return edges, nil
}

// discover scans src once for the vertex count, the largest id plus one,
// and the exact edge count. It is the discovery scan of Open and OpenMmap
// and Buffered's first pass.
func discover(src graph.EdgeStream) (n int, m int64, err error) {
	err = src.Edges(func(u, v graph.V) bool {
		n = max(n, int(u)+1, int(v)+1)
		m++
		return true
	})
	return n, m, err
}

// vertexCount resolves the n of Open and OpenMmap: n > 0 is kept as
// declared, n < 0 skips discovery (0), and n == 0 scans src once (discover)
// for the largest id plus one.
func vertexCount(src graph.EdgeStream, n int) (int, error) {
	if n != 0 {
		return max(n, 0), nil
	}
	n, _, err := discover(src)
	return n, err
}

// eachEdge walks the slabs one pass of chunks lends, yielding their edges
// in order; it releases each slab before asking for the next.
func eachEdge(chunks func(yield func(edges []graph.Edge, release func()) bool) error, yield func(u, v graph.V) bool) error {
	return chunks(func(edges []graph.Edge, release func()) bool {
		defer release()
		for _, e := range edges {
			if !yield(e.U, e.V) {
				return false
			}
		}
		return true
	})
}

// Stream is the chunked reader: a graph.ChunkStream over a binary edge-list
// file (consecutive little-endian uint32 pairs). Every pass reopens the
// file, and a read-ahead goroutine reads it straight into []graph.Edge slabs
// that are lent to the consumer, so disk I/O overlaps consumption and
// nothing is decoded or copied on the little-endian hosts the format
// matches. Edges walks the same slabs. A pass holds at most lentSlabs slabs.
type Stream struct {
	path       string
	n          int
	m          int64
	chunkEdges int
}

// Open stats a binary edge-list file and returns a chunked stream over it.
// n > 0 declares the vertex count; n == 0 discovers it with one chunked
// scan for the maximum id; n < 0 skips discovery entirely (NumVertices
// reports 0) for consumers that run their own discovery scan, like
// Buffered. chunkEdges <= 0 selects DefaultChunkEdges; a slab never holds
// more edges than the file.
func Open(path string, n, chunkEdges int) (*Stream, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	m, err := edgeCount(path, fi.Size())
	if err != nil {
		return nil, err
	}
	if chunkEdges <= 0 {
		chunkEdges = DefaultChunkEdges
	}
	s := &Stream{path: path, m: m, chunkEdges: int(min(int64(chunkEdges), m))}
	if s.n, err = vertexCount(s, n); err != nil {
		return nil, err
	}
	return s, nil
}

// NumVertices implements graph.EdgeStream.
func (s *Stream) NumVertices() int { return s.n }

// NumEdges implements graph.EdgeStream.
func (s *Stream) NumEdges() int64 { return s.m }

// Edges implements graph.EdgeStream over the slabs of one Chunks pass.
func (s *Stream) Edges(yield func(u, v graph.V) bool) error {
	return eachEdge(s.Chunks, yield)
}

// edgeChunk is one slab of the file in flight to the consumer.
type edgeChunk struct {
	edges []graph.Edge // filled prefix of a recycled slab
	err   error        // terminal read error
}

// Chunks implements graph.ChunkStream. Each call opens the file afresh; a
// read-ahead goroutine reads the NumEdges records Open counted into slabs
// and lends them in file order, so the consumer slices batches out of the
// slab without copying an edge. A released slab returns to the pass's free
// pool; a new one is allocated only when none is free and fewer than
// lentSlabs exist. A file that is shorter than it was at Open is an error.
func (s *Stream) Chunks(yield func(edges []graph.Edge, release func()) bool) error {
	f, err := os.Open(s.path)
	if err != nil {
		return err
	}
	done := make(chan struct{})
	defer close(done)

	// Both channels are sized to the slab cap: a pass never has more than
	// lentSlabs slabs to hand around.
	free := make(chan []graph.Edge, lentSlabs)
	full := make(chan edgeChunk, lentSlabs)
	go func() {
		defer close(full)
		defer f.Close()
		slabs := 0
		for off := int64(0); off < s.m; {
			var slab []graph.Edge
			if len(free) == 0 && slabs < lentSlabs {
				slab, slabs = make([]graph.Edge, s.chunkEdges), slabs+1
			} else {
				select {
				case slab = <-free:
				case <-done:
					return
				}
			}
			c := edgeChunk{edges: slab[:min(int64(len(slab)), s.m-off)]}
			if err := readEdges(f, c.edges); err != nil {
				c = edgeChunk{err: fmt.Errorf("ooc: %s: short read at edge %d of %d: %w", s.path, off, s.m, err)}
			}
			select {
			case full <- c:
			case <-done:
				return
			}
			if c.err != nil {
				return
			}
			off += int64(len(c.edges))
		}
	}()

	for c := range full {
		if c.err != nil {
			return c.err
		}
		slab := c.edges[:cap(c.edges)]
		var released atomic.Bool
		release := func() {
			if released.CompareAndSwap(false, true) {
				// The pool holds at most lentSlabs slabs, so the buffered
				// send cannot block even after the reader has exited.
				select {
				case free <- slab:
				default:
				}
			}
		}
		if !yield(c.edges, release) {
			return nil
		}
	}
	return nil
}
