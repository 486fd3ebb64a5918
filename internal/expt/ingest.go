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

// edgesOnly hides a stream's Chunks method, so the engine copies its edges.
type edgesOnly struct{ graph.EdgeStream }

// dispatchOnly is a placement-free engine worker: a pass through it prices
// the engine's dispatch and ordered delivery alone.
type dispatchOnly struct{}

func (dispatchOnly) PlaceBatch(edges []graph.Edge, parts []int32) {}

// TableIngestRow is one (dataset, mode, W) point of the zero-copy ingest
// comparison: a full engine pass over the on-disk edge file through
// placement-free workers, so the dispatch path dominates, under one of
// three ingest modes.
type TableIngestRow struct {
	Dataset string
	Mode    string // copy | lend | mmap
	Workers int
	NsEdge  float64
	// ChunksLent and BytesCopied are the run's dispatch counters: lending
	// modes show chunks with zero copied bytes, the copy mode the reverse.
	ChunksLent  int64
	BytesCopied int64
	// ZeroCopy reports whether the mmap mode lent slices of the mapping
	// itself (little-endian mapped hosts); always false for the others.
	ZeroCopy bool
}

// TableIngest compares the three ingest paths over the binary edge format —
// per-edge copy into engine slabs (the baseline: the chunked reader behind
// edgesOnly, which shard.Lend adapts), chunk-lending dispatch from the
// prefetching chunked reader, and the memory-mapped reader (zero-copy on
// little-endian hosts) — by timing a full engine pass through
// placement-free workers over each dataset written to a temp file. README's
// "Zero-copy ingest" numbers come from here (`hep-bench -exp ingest`).
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
		for _, w := range cfg.workers(1, 4) {
			for _, mode := range []string{"copy", "lend", "mmap"} {
				o := obs.New(w)
				c := o.Counters()
				opts := shard.Options{Workers: w, Obs: o}
				ws := make([]shard.BatchPlacer, w)
				for i := range ws {
					ws[i] = dispatchOnly{}
				}
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
				err := shard.Run(src, ws, opts, func(edges []graph.Edge, parts []int32) {
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
					Workers:     w,
					NsEdge:      float64(elapsed.Nanoseconds()) / float64(m),
					ChunksLent:  c.Total(obs.CtrChunksLent),
					BytesCopied: c.Total(obs.CtrBytesCopiedDispatch),
					ZeroCopy:    zero,
				})
			}
		}
	}
	t := newTable(cfg.out(), "Zero-copy ingest (placement-free engine pass over the binary edge file)")
	t.row("graph", "mode", "W", "ns/edge", "chunks_lent", "bytes_copied", "zero-copy")
	for _, r := range rows {
		t.row(r.Dataset, r.Mode, r.Workers, r.NsEdge, r.ChunksLent, r.BytesCopied, r.ZeroCopy)
	}
	t.flush()
	return rows, cfg.report("ingest", rows)
}
