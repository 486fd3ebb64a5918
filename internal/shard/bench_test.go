package shard_test

import (
	"fmt"
	"testing"

	"hep/internal/graph"
	"hep/internal/obs"
	"hep/internal/shard"
)

// nopPlacer isolates dispatch cost: placement writes a constant so the
// benchmark's per-edge time is the engine's own overhead, not HDRF scoring.
type nopPlacer struct{}

func (nopPlacer) PlaceBatch(edges []graph.Edge, parts []int32) {
	for i := range parts {
		parts[i] = 0
	}
}

// BenchmarkZeroCopyDispatch compares the two ingest modes of the sharded
// engine over the same chunked in-memory workload: `copy` hides the
// source's Chunks (edgesOnly), so the engine copies every edge into its
// adapter's slabs on the dispatch thread; `lend` slices the source's own
// slabs at batch boundaries. The ns/edge metric is the number
// the README dispatch-cost table records; the lending sub-benchmarks also
// assert bytes_copied_dispatch == 0.
func BenchmarkZeroCopyDispatch(b *testing.B) {
	const slabEdges, slabCount = 1 << 16, 16 // 1 Mi edges per pass
	for _, workers := range []int{1, 2, 4, 8} {
		for _, mode := range []string{"copy", "lend"} {
			b.Run(fmt.Sprintf("%s/W=%d", mode, workers), func(b *testing.B) {
				slabs := newSlabSource(1<<20, slabEdges, slabCount)
				m := slabs.NumEdges()
				var src graph.EdgeStream = slabs
				if mode == "copy" {
					src = edgesOnly{s: slabs}
				}
				ws := make([]shard.BatchPlacer, workers)
				for i := range ws {
					ws[i] = nopPlacer{}
				}
				o := obs.New(workers)
				c := o.Counters()
				opts := shard.Options{Workers: workers, BatchEdges: shard.DefaultBatchEdges, Obs: o}
				deliver := func(edges []graph.Edge, parts []int32) {}
				b.SetBytes(m * 8)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := shard.Run(src, ws, opts, deliver); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*m), "ns/edge")
				if mode == "lend" {
					if n := c.Total(obs.CtrBytesCopiedDispatch); n != 0 {
						b.Fatalf("bytes_copied_dispatch = %d on the lending path, want 0", n)
					}
				} else if n := c.Total(obs.CtrBytesCopiedDispatch); n == 0 {
					b.Fatal("copy mode folded no bytes_copied_dispatch")
				}
			})
		}
	}
}
