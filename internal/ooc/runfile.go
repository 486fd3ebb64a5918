package ooc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"hep/internal/graph"
)

// Edge runs are delta-varint encoded: per edge, zigzag(u − prevU) then
// zigzag(v − u), each as an unsigned varint. Power-law edge lists have
// strong id locality (consecutive edges share or neighbor their left
// endpoint), so runs are typically 2–4× smaller than the raw 8-byte binary
// format — less disk traffic for every spill and intermediate file of the
// out-of-core pipeline.

func zigzag(x int64) uint64 { return uint64((x << 1) ^ (x >> 63)) }

func unzigzag(x uint64) int64 { return int64(x>>1) ^ -int64(x&1) }

// RunWriter encodes edges into a delta-varint run.
type RunWriter struct {
	w     *bufio.Writer
	prevU int64
	count int64
	bytes int64
	buf   [2 * binary.MaxVarintLen64]byte
}

// NewRunWriter returns a RunWriter encoding into w through a 64 KiB buffer.
func NewRunWriter(w io.Writer) *RunWriter {
	return &RunWriter{w: bufio.NewWriterSize(w, 64<<10)}
}

// Append encodes one edge.
func (rw *RunWriter) Append(u, v graph.V) error {
	n := binary.PutUvarint(rw.buf[:], zigzag(int64(u)-rw.prevU))
	n += binary.PutUvarint(rw.buf[n:], zigzag(int64(v)-int64(u)))
	if _, err := rw.w.Write(rw.buf[:n]); err != nil {
		return err
	}
	rw.prevU = int64(u)
	rw.count++
	rw.bytes += int64(n)
	return nil
}

// Count returns the number of edges appended.
func (rw *RunWriter) Count() int64 { return rw.count }

// Bytes returns the encoded size so far (excluding unflushed buffering is
// not a concern: the count is maintained at encode time).
func (rw *RunWriter) Bytes() int64 { return rw.bytes }

// Flush flushes buffered output to the underlying writer.
func (rw *RunWriter) Flush() error { return rw.w.Flush() }

// RunReader decodes a delta-varint run of a known edge count.
type RunReader struct {
	r     *bufio.Reader
	count int64
}

// NewRunReader returns a RunReader decoding count edges, encoded in size
// bytes, from r. Its read buffer is sized to the run, at most 1 MiB.
func NewRunReader(r io.Reader, count, size int64) *RunReader {
	return &RunReader{r: bufio.NewReaderSize(r, int(min(size, 1<<20))), count: count}
}

// Edges decodes every edge, stopping early if yield returns false.
func (rr *RunReader) Edges(yield func(u, v graph.V) bool) error {
	var prevU int64
	for i := int64(0); i < rr.count; i++ {
		du, err := binary.ReadUvarint(rr.r)
		if err != nil {
			return fmt.Errorf("ooc: run truncated at edge %d: %w", i, err)
		}
		dv, err := binary.ReadUvarint(rr.r)
		if err != nil {
			return fmt.Errorf("ooc: run truncated at edge %d: %w", i, err)
		}
		u := prevU + unzigzag(du)
		v := u + unzigzag(dv)
		if u < 0 || v < 0 || u > int64(^graph.V(0)) || v > int64(^graph.V(0)) {
			return fmt.Errorf("ooc: run corrupt at edge %d: decoded (%d,%d)", i, u, v)
		}
		prevU = u
		if !yield(graph.V(u), graph.V(v)) {
			return nil
		}
	}
	return nil
}

// VarintH2H is a graph.H2HStore backed by a delta-varint run in a temp
// file — HEP's on-disk spill store (the "external edge file" of paper
// §3.2.1), smaller than the raw 8-byte records it replays.
type VarintH2H struct {
	f  *os.File
	rw *RunWriter
}

// NewVarintH2H creates a varint spill store backed by a temp file in dir
// (or the system temp directory if dir is empty).
func NewVarintH2H(dir string) (*VarintH2H, error) {
	f, err := os.CreateTemp(dir, "hep-h2h-*.run")
	if err != nil {
		return nil, err
	}
	return &VarintH2H{f: f, rw: NewRunWriter(f)}, nil
}

// Append implements graph.H2HStore.
func (s *VarintH2H) Append(u, v graph.V) error { return s.rw.Append(u, v) }

// Len implements graph.H2HStore.
func (s *VarintH2H) Len() int64 { return s.rw.Count() }

// Bytes returns the encoded on-disk size (8·Len is the raw-format size it
// replaces).
func (s *VarintH2H) Bytes() int64 { return s.rw.Bytes() }

// Edges implements graph.H2HStore, flushing pending writes first. Appending
// may resume after a read: the encoder's delta state is independent of the
// read cursor.
func (s *VarintH2H) Edges(yield func(u, v graph.V) bool) error {
	if err := s.rw.Flush(); err != nil {
		return err
	}
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	rr := NewRunReader(s.f, s.rw.Count(), s.rw.Bytes())
	if err := rr.Edges(yield); err != nil {
		return err
	}
	_, err := s.f.Seek(0, io.SeekEnd)
	return err
}

// Close removes the backing file.
func (s *VarintH2H) Close() error {
	name := s.f.Name()
	err := s.f.Close()
	if rmErr := os.Remove(name); err == nil {
		err = rmErr
	}
	return err
}
