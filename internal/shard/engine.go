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

// drop gives up one hold and reports whether it was the last: the
// producer's release has then run and the ref is free for the next slab.
func (r *slabRef) drop() bool {
	n := r.rc.Add(-1)
	if check.Enabled {
		check.Assertf(n >= 0, "slab refcount went negative (%d): more drops than holds", n)
	}
	if n != 0 {
		return false
	}
	r.release()
	r.release = nil
	return true
}

// job is one batch in flight: seq orders delivery, slab is the lent chunk
// the edges alias.
type job struct {
	seq   int64
	edges []graph.Edge
	parts []int32
	slab  *slabRef
	// stall is stamped by the collector when the job arrives out of
	// sequence; its wait in the reorder buffer feeds the stall histogram.
	stall time.Time
}

// engine wires the dispatcher, W workers and the collecting caller together.
// Buffers cycle free → jobs → results → free; the free list is sized so
// every channel send has room, making the pipeline deadlock-free by
// construction. Slab refs cycle the same way through refs: a ref is live
// while a job or the dispatcher holds it, so at most one more than the jobs
// are, and a run allocates none per slab.
type engine struct {
	workers  []BatchPlacer
	maxBatch int
	c        *obs.Counters // nil = no latency histograms (no clock reads)
	jobs     chan *job
	results  chan *job
	free     chan *job
	refs     chan *slabRef
}

func newEngine(workers []BatchPlacer, batchEdges int, c *obs.Counters) *engine {
	nbuf := 2*len(workers) + 2
	e := &engine{
		workers:  workers,
		maxBatch: batchEdges,
		c:        c,
		jobs:     make(chan *job, nbuf),
		results:  make(chan *job, nbuf),
		free:     make(chan *job, nbuf),
		refs:     make(chan *slabRef, nbuf+1),
	}
	for i := 0; i < nbuf; i++ {
		e.free <- &job{parts: make([]int32, batchEdges)}
		e.refs <- new(slabRef)
	}
	e.refs <- new(slabRef)
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
// of sequence and sat in the reorder buffer, i.e. worker skew. Every job
// drops its slab reference here, after delivery: the last sub-batch out
// triggers the producer's release.
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
			if jj.slab.drop() {
				e.refs <- jj.slab
			}
			jj.slab = nil
			e.free <- jj
			next++
		}
	}
}

// sizeTracker resolves per-batch target sizes from the configured sizer,
// clamping to [1, maxBatch] (the parts buffers are sized maxBatch) and folding
// a resize counter whenever consecutive batches differ.
type sizeTracker struct {
	sizer    BatchSizer
	maxBatch int
	last     int
	c        *obs.Counters
}

func newSizeTracker(sizer BatchSizer, maxBatch int, c *obs.Counters) *sizeTracker {
	return &sizeTracker{sizer: sizer, maxBatch: maxBatch, last: -1, c: c}
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
// DefaultBatchEdges). Batches are always sliced out of lent slabs: a
// source that lends decoded chunks (graph.ChunkStream) lends its own, so
// the dispatch thread copies nothing; any other source is adapted once,
// here, by Lend, which copies its edges into recycled slabs (counted in
// bytes_copied_dispatch). Run returns the stream's error, if any; batches
// dispatched before the error still complete and deliver. The worker count
// is len(workers) — opts.Workers is not consulted here; opts carries the
// batch bound, the sizing policy and the observability hub, whose counters
// the engine folds into.
func Run(src graph.EdgeStream, workers []BatchPlacer, opts Options, deliver func(edges []graph.Edge, parts []int32)) error {
	maxBatch := opts.BatchEdges
	if maxBatch <= 0 {
		maxBatch = DefaultBatchEdges
	}
	c := opts.Obs.Counters()
	cs, lends := Lend(src, maxBatch, c)
	sizes := newSizeTracker(opts.Sizer, maxBatch, c)
	if len(workers) == 1 {
		// One worker needs no pipeline: place in the caller's goroutine,
		// batch by batch, preserving the same batch-boundary semantics.
		return runOne(cs, lends, workers[0], sizes, c, deliver)
	}
	e := newEngine(workers, maxBatch, c)
	e.start()
	var serr error
	go func() {
		defer close(e.jobs)
		serr = e.dispatch(cs, lends, sizes)
	}()
	e.collect(c, deliver)
	return serr
}

// dispatch slices batches out of lent slabs: per sub-batch the dispatch
// thread does one slice expression and one refcount bump. The slab's release
// runs after the collector delivers its last sub-batch. Only a source's own
// slabs (lends) count as chunks_lent; Lend's copies count as copy fallbacks.
func (e *engine) dispatch(cs graph.ChunkStream, lends bool, sizes *sizeTracker) error {
	var seq int64
	return cs.Chunks(func(slab []graph.Edge, release func()) bool {
		ref := <-e.refs
		//hep:xfer release moves into the slabRef; the last sub-batch drop (in collect) runs it
		ref.release = release
		ref.rc.Store(1) // dispatcher hold, dropped after the slice loop
		for off := 0; off < len(slab); {
			end := min(off+sizes.next(), len(slab))
			j := <-e.free
			j.seq = seq
			seq++
			j.edges = slab[off:end:end]
			j.slab = ref
			ref.rc.Add(1)
			e.jobs <- j
			off = end
		}
		if lends {
			e.c.Add(0, obs.CtrChunksLent, 1)
		}
		if ref.drop() {
			e.refs <- ref
		}
		return true
	})
}

// runOne is the single-worker degenerate case of Run: same batching, no
// goroutines, no reordering (and so no reorder stalls — only batch and edge
// totals fold). Each slab is placed and released before the next is asked
// for, so Lend's adapter recycles one slab for the whole run.
func runOne(cs graph.ChunkStream, lends bool, w BatchPlacer, sizes *sizeTracker, c *obs.Counters, deliver func(edges []graph.Edge, parts []int32)) error {
	parts := make([]int32, sizes.maxBatch)
	//hep:noalloc
	return cs.Chunks(func(slab []graph.Edge, release func()) bool {
		for off := 0; off < len(slab); {
			end := min(off+sizes.next(), len(slab))
			edges, ps := slab[off:end:end], parts[:end-off]
			if c != nil {
				t0 := time.Now()
				w.PlaceBatch(edges, ps)
				c.Observe(0, obs.HistBatchNs, time.Since(t0).Nanoseconds())
			} else {
				w.PlaceBatch(edges, ps)
			}
			deliver(edges, ps)
			c.Add(0, obs.CtrBatches, 1)
			c.Add(0, obs.CtrEdgesStreamed, int64(len(edges)))
			off = end
		}
		if lends {
			c.Add(0, obs.CtrChunksLent, 1)
		}
		release()
		return true
	})
}

// Lend returns src as a slab-lending stream, and whether src lends its own
// slabs. A source that does not (graph.AsChunks false: the H2H spill
// stores, an AbortStream over them, plain user streams) is adapted: its
// edges are copied into recycled slabs of at most slabEdges (≥ 1) edges,
// and every lent copy folds one chunk_copy_fallbacks and its bytes into
// bytes_copied_dispatch on c. This is the one place a consumer of lent
// slabs (the engine, Buffered's buffer fill) meets a non-lending source.
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

// slabPool recycles the adapter's slabs within one Chunks call. A slab is
// allocated only when every earlier one is still lent, so a consumer that
// releases each slab before taking the next (runOne, Buffered) reuses one
// slab for the whole pass, and the W-worker engine, which holds at most
// 2W+2 batches in flight, grows it to at most 2W+3.
type slabPool struct {
	mu    sync.Mutex
	free  []*copySlab
	edges int
}

// copySlab is one pooled slab; its release func is bound once, at
// allocation, so lending a recycled slab allocates nothing.
type copySlab struct {
	edges   []graph.Edge
	release func()
}

func (p *slabPool) get() *copySlab {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		return s
	}
	s := &copySlab{edges: make([]graph.Edge, p.edges)}
	s.release = func() {
		p.mu.Lock()
		p.free = append(p.free, s)
		p.mu.Unlock()
	}
	return s
}

// Chunks implements graph.ChunkStream: fill the current slab edge by edge
// and lend it when it is full, then the partial tail — also when the source
// stops with an error, so the edges it yielded before the error still reach
// the consumer, as they do through Edges.
func (s *copyChunks) Chunks(yield func(edges []graph.Edge, release func()) bool) error {
	pool := &slabPool{edges: s.slabEdges}
	cur, n := pool.get(), 0
	lend := func() bool {
		edges := cur.edges[:n:n]
		n = 0
		s.c.Add(0, obs.CtrChunkCopyFallbacks, 1)
		s.c.Add(0, obs.CtrBytesCopiedDispatch, int64(len(edges))*8)
		if !yield(edges, cur.release) {
			return false
		}
		cur = pool.get()
		return true
	}
	//hep:noalloc
	err := s.EdgeStream.Edges(func(u, v graph.V) bool {
		cur.edges[n] = graph.Edge{U: u, V: v}
		n++
		return n < len(cur.edges) || lend()
	})
	if n > 0 {
		lend()
	}
	return err
}
