// Package ooc is the out-of-core engine: a bounded-memory pipeline for
// partitioning graphs that do not fit in RAM. It provides a chunked,
// double-buffered prefetching edge stream over binary edge-list files, an
// external-memory degree pass, delta-varint-encoded on-disk edge runs (also
// usable as the H2H spill store of paper §3.2.1), and a buffered streaming
// partitioner (Buffered) in the spirit of buffered streaming edge
// partitioning (Chhabra et al., 2024): fill a bounded edge buffer, partition
// the batch with neighborhood expansion seeded by the global replica state,
// flush, repeat. Regions grow sequentially at every worker count; Workers > 1
// fans out only the per-edge fallback through the batch engine
// (internal/shard), so the buffer a byte budget buys does not depend on it.
//
// The resident set of every component is bounded by O(|V|) vertex state
// (degree array, replica bitsets) plus a configurable buffer; the edge list
// itself is never materialized.
package ooc

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync/atomic"

	"hep/internal/graph"
)

// DefaultChunkEdges is the default read-ahead chunk size: 64Ki edges
// (512 KiB per chunk, two chunks in flight).
const DefaultChunkEdges = 1 << 16

// Stream is a chunked, prefetching graph.EdgeStream over a binary edge-list
// file (consecutive little-endian uint32 pairs). Every Edges call restarts
// the file and runs a concurrent read-ahead goroutine that keeps one chunk
// in flight while the previous one is consumed, so decode and disk I/O
// overlap. At most two chunks are resident at any time.
type Stream struct {
	path       string
	n          int
	m          int64
	chunkEdges int
}

// Open stats a binary edge-list file and returns a chunked stream over it.
// n > 0 declares the vertex count; n == 0 discovers it with one chunked
// scan for the maximum id; n < 0 skips discovery entirely (NumVertices
// reports 0) for consumers that discover ids on the fly, like Buffered's
// degree pass. chunkEdges <= 0 selects DefaultChunkEdges.
func Open(path string, n, chunkEdges int) (*Stream, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if fi.Size()%8 != 0 {
		return nil, fmt.Errorf("ooc: %s: size %d not a multiple of 8", path, fi.Size())
	}
	if chunkEdges <= 0 {
		chunkEdges = DefaultChunkEdges
	}
	s := &Stream{path: path, n: n, m: fi.Size() / 8, chunkEdges: chunkEdges}
	if n < 0 {
		s.n = 0
		return s, nil
	}
	if n == 0 {
		var max graph.V
		seen := false
		err := s.Edges(func(u, v graph.V) bool {
			seen = true
			if u > max {
				max = u
			}
			if v > max {
				max = v
			}
			return true
		})
		if err != nil {
			return nil, err
		}
		if seen {
			s.n = int(max) + 1
		} else {
			s.n = 0
		}
	}
	return s, nil
}

// NumVertices implements graph.EdgeStream.
func (s *Stream) NumVertices() int { return s.n }

// NumEdges implements graph.EdgeStream.
func (s *Stream) NumEdges() int64 { return s.m }

// ChunkEdges returns the configured read-ahead chunk size in edges.
func (s *Stream) ChunkEdges() int { return s.chunkEdges }

// chunk is one prefetched block of the file.
type chunk struct {
	buf []byte // filled prefix of a recycled buffer
	n   int    // valid bytes
	err error  // terminal read error (not io.EOF)
}

// Edges implements graph.EdgeStream. Each call opens the file afresh and
// streams it through a double-buffered prefetch pipeline: a reader goroutine
// fills chunks ahead of the decode loop; buffers are recycled through a free
// list, so the pipeline allocates exactly two chunk buffers per pass.
func (s *Stream) Edges(yield func(u, v graph.V) bool) error {
	f, err := os.Open(s.path)
	if err != nil {
		return err
	}
	done := make(chan struct{})
	defer close(done)

	free := make(chan []byte, 2)
	full := make(chan chunk, 2)
	free <- make([]byte, s.chunkEdges*8)
	free <- make([]byte, s.chunkEdges*8)

	go func() {
		defer close(full)
		defer f.Close()
		for {
			var buf []byte
			select {
			case buf = <-free:
			case <-done:
				return
			}
			n, err := io.ReadFull(f, buf)
			if valid := n - n%8; valid > 0 {
				select {
				case full <- chunk{buf: buf, n: valid}:
				case <-done:
					return
				}
			}
			if err == nil {
				continue
			}
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				if n%8 != 0 {
					err = fmt.Errorf("ooc: %s: truncated edge record (%d trailing bytes)", s.path, n%8)
				} else {
					return // clean tail
				}
			}
			select {
			case full <- chunk{err: err}:
			case <-done:
			}
			return
		}
	}()

	for c := range full {
		for off := 0; off < c.n; off += 8 {
			u := binary.LittleEndian.Uint32(c.buf[off : off+4])
			v := binary.LittleEndian.Uint32(c.buf[off+4 : off+8])
			if !yield(u, v) {
				return nil
			}
		}
		if c.err != nil {
			return c.err
		}
		if c.buf != nil {
			select {
			case free <- c.buf:
			default:
			}
		}
	}
	return nil
}

// lentSlabs is the slab-pool depth of the chunk-lending path: two slabs keep
// decode and consumption overlapped like the Edges pipeline, and the third is
// the lending slack — while a slow consumer (a worker still placing the
// batches sliced out of one slab) holds a slab past the next yield, the
// prefetch goroutine still has a free slab to decode into, so read-ahead
// never stalls on a lent buffer.
const lentSlabs = 3

// edgeChunk is one decoded block of the file in flight to the consumer.
type edgeChunk struct {
	edges []graph.Edge // filled prefix of a recycled slab
	err   error        // terminal read error (not io.EOF)
}

// Chunks implements graph.ChunkStream: the same chunked prefetch pipeline as
// Edges, but the read-ahead goroutine also *decodes* each chunk into a
// []graph.Edge slab which is then lent to the consumer — both the disk read
// and the byte decode come off the consumer's thread, and the consumer
// slices batches out of the slab without copying an edge. Slabs recycle
// through a free pool once released; at most lentSlabs are resident.
func (s *Stream) Chunks(yield func(edges []graph.Edge, release func()) bool) error {
	f, err := os.Open(s.path)
	if err != nil {
		return err
	}
	done := make(chan struct{})
	defer close(done)

	free := make(chan []graph.Edge, lentSlabs)
	full := make(chan edgeChunk, lentSlabs)
	for i := 0; i < lentSlabs; i++ {
		free <- make([]graph.Edge, s.chunkEdges)
	}

	go func() {
		defer close(full)
		defer f.Close()
		buf := make([]byte, s.chunkEdges*8)
		for {
			var slab []graph.Edge
			select {
			case slab = <-free:
			case <-done:
				return
			}
			n, err := io.ReadFull(f, buf)
			if valid := n - n%8; valid > 0 {
				edges := slab[:valid/8]
				decodeEdges(edges, buf)
				select {
				case full <- edgeChunk{edges: edges}:
				case <-done:
					return
				}
			}
			if err == nil {
				continue
			}
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				if n%8 != 0 {
					err = fmt.Errorf("ooc: %s: truncated edge record (%d trailing bytes)", s.path, n%8)
				} else {
					return // clean tail
				}
			}
			select {
			case full <- edgeChunk{err: err}:
			case <-done:
			}
			return
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

// decodeEdges decodes len(dst) little-endian uint32 pairs from buf into dst.
func decodeEdges(dst []graph.Edge, buf []byte) {
	for i := range dst {
		off := i * 8
		dst[i].U = binary.LittleEndian.Uint32(buf[off : off+4])
		dst[i].V = binary.LittleEndian.Uint32(buf[off+4 : off+8])
	}
}
