package shard_test

import (
	"testing"

	"hep/internal/graph"
	"hep/internal/obs"
	"hep/internal/shard"
)

// nopPlacer isolates the batch loop's cost: placement writes a constant so
// the benchmark's per-edge time is Run's own overhead, not HDRF scoring.
type nopPlacer struct{}

func (nopPlacer) PlaceBatch(edges []graph.Edge, parts []int32) error {
	for i := range parts {
		parts[i] = 0
	}
	return nil
}

// BenchmarkZeroCopyDispatch compares the two ingest modes of the batch loop
// over the same chunked in-memory workload: `copy` hides the source's
// Chunks (edgesOnly), so Run copies every edge into its adapter's slab;
// `lend` slices the source's own slabs at batch boundaries. The ns/edge
// metric is the number the README dispatch-cost table records; the lending
// sub-benchmark also asserts bytes_copied_dispatch == 0.
func BenchmarkZeroCopyDispatch(b *testing.B) {
	const slabEdges, slabCount = 1 << 16, 16 // 1 Mi edges per pass
	for _, mode := range []string{"copy", "lend"} {
		b.Run(mode, func(b *testing.B) {
			slabs := newSlabSource(1<<20, slabEdges, slabCount)
			m := slabs.NumEdges()
			var src graph.EdgeStream = slabs
			if mode == "copy" {
				src = edgesOnly{s: slabs}
			}
			c := obs.NewCounters()
			deliver := func(edges []graph.Edge, parts []int32) {}
			b.SetBytes(m * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := shard.Run(src, nopPlacer{}, c, deliver); err != nil {
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
