package shard

import (
	"cmp"
	"time"

	"hep/internal/check"
	"hep/internal/graph"
	"hep/internal/obs"
)

// DefaultBatchEdges is the batch size Run places and delivers in. At 4096
// edges the per-batch work (two counter adds, a latency observation and
// the caller's quality sample) amortizes to well under a nanosecond per
// edge.
const DefaultBatchEdges = 4096

// BatchPlacer places one batch: PlaceBatch decides a partition for every
// edge, writing parts[i] for edges[i], or returns the error that ends the
// pass. Batch edge slices may alias a lent producer slab
// (graph.ChunkStream), so a placer must treat edges as read-only and must
// not retain the slice past the call.
type BatchPlacer interface {
	PlaceBatch(edges []graph.Edge, parts []int32) error
}

// Run streams src through w in batches of at most DefaultBatchEdges and
// calls deliver once per batch, in stream order, from the calling
// goroutine. Batches are slices of lent slabs: a source that lends decoded
// chunks (graph.ChunkStream) lends its own, so nothing is copied; any other
// source is copied into one recycled slab by Lend (counted in
// bytes_copied_dispatch). Each slab is placed, delivered and released
// before the next is asked for. With counters c (nil = disabled) every
// PlaceBatch is timed into the batch latency histogram, and batch and edge
// totals fold once per batch.
//
// The first PlaceBatch error ends the pass: the failed batch is not
// delivered, the slab in hand is released, the scan stops and Run returns
// that error. Otherwise Run returns the stream's error, if any.
func Run(src graph.EdgeStream, w BatchPlacer, c *obs.Counters, deliver func(edges []graph.Edge, parts []int32)) error {
	cs, lends := Lend(src, DefaultBatchEdges, c)
	parts := make([]int32, DefaultBatchEdges)
	var placeErr error
	//hep:noalloc
	err := cs.Chunks(func(slab []graph.Edge, release func()) bool {
		for off := 0; off < len(slab); {
			end := min(off+DefaultBatchEdges, len(slab))
			edges, ps := slab[off:end:end], parts[:end-off]
			if c != nil {
				t0 := time.Now()
				placeErr = w.PlaceBatch(edges, ps)
				c.Observe(obs.HistBatchNs, time.Since(t0).Nanoseconds())
			} else {
				placeErr = w.PlaceBatch(edges, ps)
			}
			if placeErr != nil {
				release()
				return false
			}
			deliver(edges, ps)
			c.Add(obs.CtrBatches, 1)
			c.Add(obs.CtrEdgesStreamed, int64(len(edges)))
			off = end
		}
		if lends {
			c.Add(obs.CtrChunksLent, 1)
		}
		release()
		return true
	})
	return cmp.Or(placeErr, err)
}

// Lend returns src as a slab-lending stream, and whether src lends its own
// slabs. A source that does not (graph.AsChunks false: the H2H spill
// stores, plain user streams) is adapted: its
// edges are copied into one slab of slabEdges (≥ 1) edges, lent each time
// it fills and once more for the tail, and every lent copy folds one
// chunk_copy_fallbacks and its bytes into bytes_copied_dispatch on c. The
// adapter's consumers (Run, Buffered's buffer fill) release each slab
// before they ask for the next, so one slab serves the whole pass; under
// -tags=hepcheck a slab still held when the next fill starts panics.
func Lend(src graph.EdgeStream, slabEdges int, c *obs.Counters) (graph.ChunkStream, bool) {
	if cs, ok := graph.AsChunks(src); ok {
		return cs, true
	}
	return &copyChunks{EdgeStream: src, slabEdges: slabEdges, c: c}, false
}

// copyChunks is Lend's adapter for a source that does not lend.
type copyChunks struct {
	graph.EdgeStream
	slabEdges int
	c         *obs.Counters
}

// Chunks implements graph.ChunkStream: fill the slab edge by edge and lend
// it when it is full, then the partial tail — also when the source stops
// with an error, so the edges it yielded before the error still reach the
// consumer, as they do through Edges.
func (s *copyChunks) Chunks(yield func(edges []graph.Edge, release func()) bool) error {
	slab, n := make([]graph.Edge, s.slabEdges), 0
	held := false
	release := func() { held = false }
	lend := func() bool {
		edges := slab[:n:n]
		n = 0
		s.c.Add(obs.CtrChunkCopyFallbacks, 1)
		s.c.Add(obs.CtrBytesCopiedDispatch, int64(len(edges))*8)
		held = true
		ok := yield(edges, release)
		if check.Enabled {
			check.Assertf(!held, "shard: a lent copy slab was not released before the next fill")
		}
		return ok
	}
	//hep:noalloc
	err := s.EdgeStream.Edges(func(u, v graph.V) bool {
		slab[n] = graph.Edge{U: u, V: v}
		n++
		return n < len(slab) || lend()
	})
	if n > 0 {
		lend()
	}
	return err
}
