// Package edgeio writes edge lists in the format the paper's evaluation
// uses: binary edge lists with 32-bit little-endian vertex id pairs
// (Appendix A "Input Formats", Table 3 sizes refer to this format), whole
// lists at a time, and partitioned edges one binary file per partition.
// Reading that format — streamed (ooc.Open, ooc.OpenMmap) or whole
// (ooc.ReadFile) — is internal/ooc's job, as is the on-disk spill store for
// edges between two high-degree vertices (ooc.VarintH2H, the "external edge
// file" of §3.2.1).
package edgeio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"hep/internal/graph"
)

// WriteBinary writes edges as consecutive little-endian uint32 pairs.
func WriteBinary(w io.Writer, edges []graph.Edge) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	var buf [8]byte
	for _, e := range edges {
		binary.LittleEndian.PutUint32(buf[0:4], e.U)
		binary.LittleEndian.PutUint32(buf[4:8], e.V)
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteBinaryFile writes a binary edge list to path.
func WriteBinaryFile(path string, edges []graph.Edge) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteBinary(f, edges); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// PartitionWriter streams edge assignments into one binary edge-list file
// per partition plus nothing else — the on-disk layout a distributed graph
// engine ingests (one file per worker). It implements part.Sink via its
// Assign method.
type PartitionWriter struct {
	files []*os.File
	bufs  []*bufio.Writer
	err   error
}

// NewPartitionWriter creates files named prefix.0.bin … prefix.{k-1}.bin.
func NewPartitionWriter(prefix string, k int) (*PartitionWriter, error) {
	w := &PartitionWriter{
		files: make([]*os.File, k),
		bufs:  make([]*bufio.Writer, k),
	}
	for p := 0; p < k; p++ {
		f, err := os.Create(fmt.Sprintf("%s.%d.bin", prefix, p))
		if err != nil {
			w.Close()
			return nil, err
		}
		w.files[p] = f
		w.bufs[p] = bufio.NewWriterSize(f, 1<<16)
	}
	return w, nil
}

// Assign implements part.Sink; the first write error is sticky and
// reported by Close.
func (w *PartitionWriter) Assign(u, v graph.V, p int) {
	if w.err != nil {
		return
	}
	var buf [8]byte
	binary.LittleEndian.PutUint32(buf[0:4], u)
	binary.LittleEndian.PutUint32(buf[4:8], v)
	if _, err := w.bufs[p].Write(buf[:]); err != nil {
		w.err = err
	}
}

// Close flushes and closes every partition file, returning the first error
// encountered during writing or closing.
func (w *PartitionWriter) Close() error {
	err := w.err
	for p := range w.files {
		if w.bufs[p] != nil {
			if e := w.bufs[p].Flush(); e != nil && err == nil {
				err = e
			}
		}
		if w.files[p] != nil {
			if e := w.files[p].Close(); e != nil && err == nil {
				err = e
			}
		}
	}
	return err
}
