package shard

import (
	"sync"
	"sync/atomic"
	"time"

	"hep/internal/check"
	"hep/internal/graph"
	"hep/internal/obs"
)

// DefaultBatchEdges is the default fan-out batch size. At 4096 edges the
// per-batch synchronization (one snapshot + one fold, two mutex sections and
// a k-word copy) amortizes to well under a nanosecond per edge, while the
// load-bound staleness stays at W·4096 edges — a vanishing fraction of any
// graph worth parallelizing.
const DefaultBatchEdges = 4096

// MinBatchEdges is the smallest batch the sizing policies go down to: below
// 256 edges the per-batch synchronization stops amortizing.
const MinBatchEdges = 256

// BatchPlacer is one placement worker of the engine. PlaceBatch decides a
// partition for every edge of one batch, writing parts[i] for edges[i]; it
// is called from the worker's own goroutine and calls to the same worker
// never overlap, so a worker may keep per-batch scratch state without locks.
// Batch edge slices may alias a lent producer slab (graph.ChunkStream), so
// workers must treat edges as read-only and must not retain the slice past
// the call.
type BatchPlacer interface {
	PlaceBatch(edges []graph.Edge, parts []int32)
}

// slabRef tracks one lent chunk across the sub-batches sliced out of it:
// the producer's release runs only after the ordered collector has delivered
// the last sub-batch, so a slab is never recycled while any job still
// aliases it. The dispatcher holds one reference while slicing, so a slab
// whose early sub-batches deliver instantly is not released mid-slice.
type slabRef struct {
	rc      atomic.Int32
	release func()
}

func (r *slabRef) drop() {
	n := r.rc.Add(-1)
	if check.Enabled {
		check.Assertf(n >= 0, "slab refcount went negative (%d): more drops than holds", n)
	}
	if n == 0 {
		r.release()
	}
}

// job is one batch in flight: seq orders delivery, buf is the owned edge
// buffer (nil when edges aliases a lent slab), slab is the lent chunk the
// edges alias (nil on the copy path).
type job struct {
	seq   int64
	edges []graph.Edge
	parts []int32
	buf   []graph.Edge
	slab  *slabRef
	// stall is stamped by the collector when the job arrives out of
	// sequence; its wait in the reorder buffer feeds the stall histogram.
	stall time.Time
}

// engine wires the dispatcher, W workers and the collecting caller together.
// Buffers cycle free → jobs → results → free; the free list is sized so
// every channel send has room, making the pipeline deadlock-free by
// construction.
type engine struct {
	workers  []BatchPlacer
	maxBatch int
	c        *obs.Counters // nil = no latency histograms (no clock reads)
	jobs     chan *job
	results  chan *job
	free     chan *job
}

func newEngine(workers []BatchPlacer, batchEdges int, ownBufs bool, c *obs.Counters) *engine {
	nbuf := 2*len(workers) + 2
	e := &engine{
		workers:  workers,
		maxBatch: batchEdges,
		c:        c,
		jobs:     make(chan *job, nbuf),
		results:  make(chan *job, nbuf),
		free:     make(chan *job, nbuf),
	}
	for i := 0; i < nbuf; i++ {
		j := &job{parts: make([]int32, batchEdges)}
		if ownBufs {
			j.buf = make([]graph.Edge, 0, batchEdges)
			j.edges = j.buf // first fill appends in place, like every recycle
		}
		e.free <- j
	}
	return e
}

// start launches the worker goroutines and arranges for results to close
// once every worker has drained the (closed) jobs channel. With counters
// installed, each worker times its PlaceBatch into the per-worker batch
// latency histogram — one clock pair per batch, not per edge.
func (e *engine) start() {
	var wg sync.WaitGroup
	wg.Add(len(e.workers))
	for wi, w := range e.workers {
		go func(wi int, w BatchPlacer) {
			defer wg.Done()
			for j := range e.jobs {
				if e.c != nil {
					t0 := time.Now()
					w.PlaceBatch(j.edges, j.parts[:len(j.edges)])
					e.c.Observe(wi, obs.HistBatchNs, time.Since(t0).Nanoseconds())
				} else {
					w.PlaceBatch(j.edges, j.parts[:len(j.edges)])
				}
				e.results <- j
			}
		}(wi, w)
	}
	go func() {
		wg.Wait()
		close(e.results)
	}()
}

// collect reorders finished batches by sequence number and delivers them in
// stream order — the deterministic replay guarantee: whatever interleaving
// the workers ran under, the caller observes assignments in the exact order
// the stream yielded the edges. Counter folds happen here, once per batch,
// from the single collector goroutine (lane 0): batches and edges delivered
// (the live progress signal) and reorder stalls — batches that arrived ahead
// of sequence and sat in the reorder buffer, i.e. worker skew. Jobs sliced
// from a lent slab drop their slab reference here, after delivery: the last
// sub-batch out triggers the producer's release.
func (e *engine) collect(c *obs.Counters, deliver func(edges []graph.Edge, parts []int32)) {
	var next int64
	pending := make(map[int64]*job)
	for j := range e.results {
		if check.Enabled {
			_, dup := pending[j.seq]
			check.Assertf(j.seq >= next && !dup, "reorder buffer: batch seq %d violates exactly-once delivery (next %d, duplicate %v)", j.seq, next, dup)
		}
		if j.seq != next {
			c.Add(0, obs.CtrReorderStalls, 1)
			if c != nil {
				j.stall = time.Now()
			}
		}
		pending[j.seq] = j
		for {
			jj, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			if !jj.stall.IsZero() {
				c.Observe(0, obs.HistStallNs, time.Since(jj.stall).Nanoseconds())
				jj.stall = time.Time{}
			}
			deliver(jj.edges, jj.parts[:len(jj.edges)])
			c.Add(0, obs.CtrBatches, 1)
			c.Add(0, obs.CtrEdgesStreamed, int64(len(jj.edges)))
			if jj.slab != nil {
				jj.slab.drop()
				jj.slab = nil
			}
			if jj.buf != nil {
				jj.edges = jj.buf[:0]
			}
			e.free <- jj
			next++
		}
	}
}

// sizeTracker resolves per-batch target sizes from the configured sizer,
// clamping to [1, maxBatch] (the job buffers are sized maxBatch) and folding
// a resize counter whenever consecutive batches differ.
type sizeTracker struct {
	sizer    BatchSizer
	maxBatch int
	last     int
	c        *obs.Counters
}

func newSizeTracker(opts Options, maxBatch int) *sizeTracker {
	return &sizeTracker{sizer: opts.Sizer, maxBatch: maxBatch, last: -1, c: opts.Obs}
}

func (t *sizeTracker) next() int {
	sz := t.maxBatch
	if t.sizer != nil {
		sz = t.sizer.NextBatch()
		if sz < 1 {
			sz = 1
		}
		if sz > t.maxBatch {
			sz = t.maxBatch
		}
	}
	if t.last >= 0 && sz != t.last {
		t.c.Add(0, obs.CtrBatchResizes, 1)
	}
	t.last = sz
	return sz
}

// Run streams src through the workers in batches and calls deliver once per
// batch, in stream order, from the calling goroutine. Batch sizes come from
// opts.Sizer when installed, bounded by opts.BatchEdges (0 =
// DefaultBatchEdges). When the source lends decoded chunks
// (graph.ChunkStream) and opts.CopyDispatch is off, batches are sliced out
// of the lent slabs — the dispatch thread copies nothing; otherwise edges
// are appended into owned job buffers (the copy path, counted in
// bytes_copied_dispatch). Run returns the stream's error, if any; batches
// dispatched before the error still complete and deliver. The worker count
// is len(workers) — opts.Workers is not consulted here; opts carries the
// batch bound, the sizing policy and the observability sink.
func Run(src graph.EdgeStream, workers []BatchPlacer, opts Options, deliver func(edges []graph.Edge, parts []int32)) error {
	maxBatch := opts.BatchEdges
	if maxBatch <= 0 {
		maxBatch = DefaultBatchEdges
	}
	cs, lend := graph.AsChunks(src)
	if opts.CopyDispatch {
		lend = false
	}
	if len(workers) == 1 {
		// One worker needs no pipeline: place in the caller's goroutine,
		// batch by batch, preserving the same batch-boundary semantics.
		return runOne(src, cs, lend, workers[0], maxBatch, opts, deliver)
	}
	e := newEngine(workers, maxBatch, !lend, opts.Obs)
	e.start()
	var serr error
	go func() {
		defer close(e.jobs)
		if lend {
			serr = e.dispatchLent(cs, opts)
		} else {
			serr = e.dispatchCopy(src, opts)
		}
	}()
	e.collect(opts.Obs, deliver)
	return serr
}

// dispatchLent slices batches out of lent slabs: per sub-batch the dispatch
// thread does one slice expression and one refcount bump — no edge is
// copied (bytes_copied_dispatch stays 0). The slab's release runs after the
// collector delivers its last sub-batch.
func (e *engine) dispatchLent(cs graph.ChunkStream, opts Options) error {
	sizes := newSizeTracker(opts, e.maxBatch)
	var seq int64
	err := cs.Chunks(func(slab []graph.Edge, release func()) bool {
		//hep:xfer release moves into the slabRef; the last sub-batch drop (in collect) runs it
		ref := &slabRef{release: release}
		ref.rc.Store(1) // dispatcher hold, dropped after the slice loop
		for off := 0; off < len(slab); {
			end := off + sizes.next()
			if end > len(slab) {
				end = len(slab)
			}
			j := <-e.free
			j.seq = seq
			seq++
			j.edges = slab[off:end:end]
			j.slab = ref
			ref.rc.Add(1)
			e.jobs <- j
			off = end
		}
		opts.Obs.Add(0, obs.CtrChunksLent, 1)
		ref.drop()
		return true
	})
	return err
}

// dispatchCopy appends every edge into owned job buffers — the legacy path
// for sources that cannot lend chunks (and the CopyDispatch baseline). Each
// dispatched batch folds its copied bytes and a copy-fallback count.
func (e *engine) dispatchCopy(src graph.EdgeStream, opts Options) error {
	sizes := newSizeTracker(opts, e.maxBatch)
	var seq int64
	cur := <-e.free
	target := sizes.next()
	ship := func() {
		cur.seq = seq
		seq++
		opts.Obs.Add(0, obs.CtrChunkCopyFallbacks, 1)
		opts.Obs.Add(0, obs.CtrBytesCopiedDispatch, int64(len(cur.edges))*8)
		e.jobs <- cur
	}
	serr := src.Edges(func(u, v graph.V) bool {
		cur.edges = append(cur.edges, graph.Edge{U: u, V: v})
		if len(cur.edges) >= target {
			ship()
			cur = <-e.free
			target = sizes.next()
		}
		return true
	})
	if len(cur.edges) > 0 {
		ship()
	}
	return serr
}

// runOne is the single-worker degenerate case of Run: same batching, no
// goroutines, no reordering (and so no reorder stalls — only batch and edge
// totals fold). The copy path reuses one grow-only batch buffer for the
// whole run; the lending path slices lent slabs directly.
func runOne(src graph.EdgeStream, cs graph.ChunkStream, lend bool, w BatchPlacer, maxBatch int, opts Options, deliver func(edges []graph.Edge, parts []int32)) error {
	c := opts.Obs
	sizes := newSizeTracker(opts, maxBatch)
	parts := make([]int32, maxBatch)
	//hep:noalloc
	flush := func(edges []graph.Edge) {
		if c != nil {
			t0 := time.Now()
			w.PlaceBatch(edges, parts[:len(edges)])
			c.Observe(0, obs.HistBatchNs, time.Since(t0).Nanoseconds())
		} else {
			w.PlaceBatch(edges, parts[:len(edges)])
		}
		deliver(edges, parts[:len(edges)])
		c.Add(0, obs.CtrBatches, 1)
		c.Add(0, obs.CtrEdgesStreamed, int64(len(edges)))
	}
	if lend {
		err := cs.Chunks(func(slab []graph.Edge, release func()) bool {
			for off := 0; off < len(slab); {
				end := off + sizes.next()
				if end > len(slab) {
					end = len(slab)
				}
				flush(slab[off:end:end])
				off = end
			}
			c.Add(0, obs.CtrChunksLent, 1)
			release()
			return true
		})
		return err
	}
	edges := make([]graph.Edge, 0, maxBatch)
	target := sizes.next()
	err := src.Edges(func(u, v graph.V) bool {
		edges = append(edges, graph.Edge{U: u, V: v})
		if len(edges) >= target {
			c.Add(0, obs.CtrChunkCopyFallbacks, 1)
			c.Add(0, obs.CtrBytesCopiedDispatch, int64(len(edges))*8)
			flush(edges)
			edges = edges[:0]
			target = sizes.next()
		}
		return true
	})
	if len(edges) > 0 {
		c.Add(0, obs.CtrChunkCopyFallbacks, 1)
		c.Add(0, obs.CtrBytesCopiedDispatch, int64(len(edges))*8)
		flush(edges)
	}
	return err
}
