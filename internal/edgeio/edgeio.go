// Package edgeio reads and writes edge lists in the formats the paper's
// evaluation uses: binary edge lists with 32-bit little-endian vertex id
// pairs (Appendix A "Input Formats", Table 3 sizes refer to this format) and
// whitespace-separated text, whole lists at a time, and writes partitioned
// edges one binary file per partition. Streaming a binary edge list without
// loading it is internal/ooc's job (ooc.Open, ooc.OpenMmap), as is the
// on-disk spill store for edges between two high-degree vertices
// (ooc.VarintH2H, the "external edge file" of §3.2.1).
package edgeio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

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

// ReadBinary reads all little-endian uint32 pairs from r.
func ReadBinary(r io.Reader) ([]graph.Edge, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var edges []graph.Edge
	var buf [8]byte
	for {
		_, err := io.ReadFull(br, buf[:])
		if err == io.EOF {
			return edges, nil
		}
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("edgeio: truncated binary edge list")
		}
		if err != nil {
			return nil, err
		}
		edges = append(edges, graph.Edge{
			U: binary.LittleEndian.Uint32(buf[0:4]),
			V: binary.LittleEndian.Uint32(buf[4:8]),
		})
	}
}

// ReadBinaryFile reads a binary edge list from path.
func ReadBinaryFile(path string) ([]graph.Edge, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBinary(f)
}

// WriteText writes edges as "u v" lines.
func WriteText(w io.Writer, edges []graph.Edge) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	for _, e := range edges {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e.U, e.V); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText reads "u v" lines; empty lines and lines starting with '#' or
// '%' (SNAP/Konect headers) are skipped.
func ReadText(r io.Reader) ([]graph.Edge, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges []graph.Edge
	line := 0
	for sc.Scan() {
		line++
		t := strings.TrimSpace(sc.Text())
		if t == "" || strings.HasPrefix(t, "#") || strings.HasPrefix(t, "%") {
			continue
		}
		fields := strings.Fields(t)
		if len(fields) < 2 {
			return nil, fmt.Errorf("edgeio: line %d: want two vertex ids, got %q", line, t)
		}
		u, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("edgeio: line %d: %v", line, err)
		}
		v, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("edgeio: line %d: %v", line, err)
		}
		edges = append(edges, graph.Edge{U: graph.V(u), V: graph.V(v)})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return edges, nil
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
