package ooc

import (
	"fmt"
	"os"
	"sync/atomic"
	"unsafe"

	"hep/internal/graph"
)

// mapChunkEdges is the length of the mapping slices MmapStream lends. They
// alias the mapping, so the size costs no memory; it only sets where the
// placement batch loop's batches are cut.
const mapChunkEdges = 1 << 16

// MmapStream is a binary edge-list reader in the spirit of the exemplar HEP
// implementation, which memory-maps its graph file: the kernel pages edge
// data straight into the partitioner's address space, so ingest costs no
// read syscalls and no userspace buffer, and — on little-endian hosts, where
// the on-disk layout *is* the in-memory []graph.Edge layout — Chunks lends
// slices of the mapping itself.
//
// It has two modes. Where the file can be mapped on a little-endian host it
// lends the mapping; everywhere else (no mmap, the nommap build tag, which
// CI exercises, a big-endian host, a failed map) it is the chunked reader
// of Open — same API, same edge sequence. Mapped reports which.
//
// Unlike Stream, a mapped MmapStream holds the mapping for its whole
// lifetime and must be Closed; lent slabs must be released before Close.
type MmapStream struct {
	file    Stream       // path and counts; the chunked reader when unmapped
	edges   []graph.Edge // the mapping as edges (nil: the chunked reader serves)
	unmap   func() error // releases the mapping
	closed  atomic.Bool
	lentOut atomic.Int64 // mapping slices currently lent (guards Close in tests)
}

// OpenMmap opens a binary edge-list file (consecutive little-endian uint32
// pairs, the same format Open reads) as a memory-mapped EdgeStream. n > 0
// declares the vertex count, n == 0 discovers it with one scan over the
// mapping, n < 0 skips discovery (NumVertices reports 0). If the file cannot
// be mapped the stream is the chunked reader instead.
func OpenMmap(path string, n int) (*MmapStream, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // a mapping outlives its descriptor
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	m, err := edgeCount(path, fi.Size())
	if err != nil {
		return nil, err
	}
	s := &MmapStream{file: Stream{path: path, m: m, chunkEdges: int(min(DefaultChunkEdges, m))}}
	if m > 0 && hostLittleEndian {
		// A map failure (errMmapUnsupported, exotic filesystems, 32-bit
		// address-space exhaustion) is not fatal: the chunked reader
		// serves the same edges.
		if data, unmap, err := mmapFile(f, fi.Size()); err == nil {
			s.edges, s.unmap = unsafe.Slice((*graph.Edge)(unsafe.Pointer(&data[0])), m), unmap
		}
	}
	if s.file.n, err = vertexCount(s, n); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// NumVertices implements graph.EdgeStream.
func (s *MmapStream) NumVertices() int { return s.file.n }

// NumEdges implements graph.EdgeStream.
func (s *MmapStream) NumEdges() int64 { return s.file.m }

// Mapped reports whether Chunks lends slices of the mapping itself (false
// when the stream is the chunked reader).
func (s *MmapStream) Mapped() bool { return s.edges != nil }

// Close unmaps the file. Idempotent. Lent slabs of a mapped stream must be
// released before Close — they alias the mapping.
func (s *MmapStream) Close() error {
	if !s.closed.CompareAndSwap(false, true) || s.unmap == nil {
		return nil
	}
	s.edges = nil
	return s.unmap()
}

// Edges implements graph.EdgeStream over the slabs of one Chunks pass.
func (s *MmapStream) Edges(yield func(u, v graph.V) bool) error {
	return eachEdge(s.Chunks, yield)
}

// Chunks implements graph.ChunkStream. A mapped stream lends slices of the
// mapping itself — nothing is ever read, copied or decoded, and release
// only counts the slice back in. Otherwise it is the chunked reader's pass.
func (s *MmapStream) Chunks(yield func(edges []graph.Edge, release func()) bool) error {
	if s.closed.Load() {
		return fmt.Errorf("ooc: %s: stream is closed", s.file.path)
	}
	if s.edges == nil {
		return s.file.Chunks(yield)
	}
	for off := 0; off < len(s.edges); off += mapChunkEdges {
		end := min(off+mapChunkEdges, len(s.edges))
		s.lentOut.Add(1)
		var released atomic.Bool
		release := func() {
			if released.CompareAndSwap(false, true) {
				s.lentOut.Add(-1)
			}
		}
		if !yield(s.edges[off:end:end], release) {
			return nil
		}
	}
	return nil
}

// Lent returns the number of mapping slices currently lent out (always 0
// for the chunked reader, whose slabs are pool-owned). Test hook for the
// release discipline.
func (s *MmapStream) Lent() int64 { return s.lentOut.Load() }
