package expt

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hep/internal/edgeio"
	"hep/internal/graph"
	"hep/internal/obs"
	"hep/internal/ooc"
	"hep/internal/shard"
)

// edgesOnly hides a stream's Chunks method, so the batch loop copies its
// edges.
type edgesOnly struct{ graph.EdgeStream }

// dispatchOnly is a placement-free placer: a pass through it prices the
// batch loop's ingest and delivery alone.
type dispatchOnly struct{}

func (dispatchOnly) PlaceBatch(edges []graph.Edge, parts []int32) error { return nil }

// TableIngestRow is one (dataset, mode) point of the zero-copy ingest
// comparison: a full batch-loop pass over the on-disk edge file through a
// placement-free placer, so ingest dominates, under one of three ingest
// modes.
type TableIngestRow struct {
	Dataset string
	Mode    string // copy | lend | mmap
	NsEdge  float64
	// ChunksLent and BytesCopied are the run's ingest counters: lending
	// modes show chunks with zero copied bytes, the copy mode the reverse.
	ChunksLent  int64
	BytesCopied int64
	// ZeroCopy reports whether the mmap mode lent slices of the mapping
	// itself (little-endian mapped hosts); always false for the others.
	ZeroCopy bool
}

// TableIngest compares the three ingest paths over the binary edge format —
// per-edge copy into a batch slab (the baseline: the chunked reader behind
// edgesOnly, which shard.Lend adapts), lending from the chunked reader, and
// the memory-mapped reader (zero-copy on little-endian hosts) —
// by timing a full shard.Run pass through a placement-free placer over each
// dataset written to a temp file. README's "Zero-copy ingest" numbers come
// from here (`hep-bench -exp ingest`).
func TableIngest(cfg Config) ([]TableIngestRow, error) {
	dir, err := os.MkdirTemp("", "hep-ingest-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var rows []TableIngestRow
	for _, name := range cfg.datasets("OK", "TW", "LJ") {
		g := cfg.build(name)
		path := filepath.Join(dir, name+".bin")
		if err := edgeio.WriteBinaryFile(path, g.E); err != nil {
			return nil, err
		}
		n, m := g.NumVertices(), g.NumEdges()
		for _, mode := range []string{"copy", "lend", "mmap"} {
			c := obs.NewCounters()
			var ms *ooc.MmapStream
			var src graph.EdgeStream
			if mode == "mmap" {
				ms, err = ooc.OpenMmap(path, n)
				if err != nil {
					return nil, err
				}
				src = ms
			} else {
				src, err = ooc.Open(path, n, 0)
				if err != nil {
					return nil, err
				}
				if mode == "copy" {
					src = edgesOnly{src}
				}
			}
			var gotM int64
			start := time.Now()
			err := shard.Run(src, dispatchOnly{}, c, func(edges []graph.Edge, parts []int32) {
				gotM += int64(len(edges))
			})
			elapsed := time.Since(start)
			zero := false
			if ms != nil {
				zero = ms.Mapped()
				ms.Close()
			}
			if err != nil {
				return nil, err
			}
			if gotM != m {
				return nil, fmt.Errorf("expt: ingest %s/%s: %d edges delivered, want %d", name, mode, gotM, m)
			}
			rows = append(rows, TableIngestRow{
				Dataset:     name,
				Mode:        mode,
				NsEdge:      float64(elapsed.Nanoseconds()) / float64(m),
				ChunksLent:  c.Total(obs.CtrChunksLent),
				BytesCopied: c.Total(obs.CtrBytesCopiedDispatch),
				ZeroCopy:    zero,
			})
		}
	}
	t := newTable(cfg.out(), "Zero-copy ingest (placement-free batch-loop pass over the binary edge file)")
	t.row("graph", "mode", "ns/edge", "chunks_lent", "bytes_copied", "zero-copy")
	for _, r := range rows {
		t.row(r.Dataset, r.Mode, r.NsEdge, r.ChunksLent, r.BytesCopied, r.ZeroCopy)
	}
	t.flush()
	return rows, cfg.report("ingest", rows)
}
