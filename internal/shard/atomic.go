// Package shard is the parallel sharded streaming engine: it splits an edge
// stream into fixed-size batches, fans them out to W placement workers, and
// lets every worker place edges concurrently against one shared replica
// state. The vertex-major layout of pstate.Table is what makes this safe and
// cheap — each vertex owns exactly one dense mask word, so there is no
// cross-partition write contention and replica updates reduce to an atomic
// CAS on that word (the same claim-array discipline internal/dne uses for
// its shared edge pool). Load state is sharded: every worker accumulates
// per-partition deltas locally and folds them into the global pstate.Loads
// tracker at batch boundaries, so the HDRF balance term reads bounds that
// are stale by at most one batch ("bounded staleness"), which the buffered
// streaming literature (Chhabra et al.; Schlag et al.) shows preserves
// partitioning quality while scaling near-linearly with cores.
//
// The package deliberately knows nothing about scoring: internal/stream owns
// the HDRF scorer and implements BatchPlacer on top of the three primitives
// here — AtomicTable (concurrent replica table), ShardedLoads (delta-folded
// load tracker) and Run (the batch scheduler with deterministic stream-order
// delivery).
//
// Run is the one placement path at every worker count. With one worker it
// places batches in the caller's goroutine, with no pipeline and no
// reordering (runOne); a placer that writes the caller's sequential state
// directly then reproduces the sequential pass exactly — internal/stream
// runs HDRF this way, with the same output as a per-edge loop. Lent slabs
// are Run's one input: batches are slices of them, and a source that does
// not lend is copied into recycled slabs once, at entry (Lend).
//
// Run drives placement passes only: HDRF, re-streaming and HEP's informed
// h2h phase. The pre-passes — exact degree counts, HEP's CSR build — run
// sequentially at every worker count, as in the paper: on a 2-core host
// their batch-parallel forms were slower than the sequential passes at two
// workers.
package shard

import (
	"runtime"
	"sync"
	"sync/atomic"

	"hep/internal/graph"
	"hep/internal/obs"
	"hep/internal/pstate"
)

// Options parameterizes a parallel run.
type Options struct {
	// Workers is the number of placement workers (0 = GOMAXPROCS).
	Workers int
	// BatchEdges is the largest batch edges are fanned out in (0 =
	// DefaultBatchEdges): the parts buffers, and the slabs a non-lending
	// source is copied into, are allocated at this size. Without a Sizer
	// every batch has this size. The HDRF runner resolves it from the
	// worker count when it is 0, and pins fixed batches when it is not.
	BatchEdges int
	// Obs is the observability hub (nil = disabled). The engine folds
	// batch/edge/stall totals and latency histograms into its counters at
	// delivery boundaries; runners that own live quality state
	// (internal/stream) push RF/balance samples into its series ring.
	Obs *obs.Obs
	// Sizer, if non-nil, dictates each successive dispatch batch size
	// (clamped to [1, BatchEdges]). The HDRF runner installs a
	// capacity-aware AdaptiveSizer when more than one worker runs and
	// BatchEdges is 0.
	Sizer BatchSizer
}

// Resolve returns the effective worker count: Workers, or GOMAXPROCS for 0.
func (o Options) Resolve() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// AtomicTable is the concurrent form of pstate.Table: the same vertex-major
// mask layout (one dense uint64 word per vertex for partitions 0..63, lazily
// allocated overflow pages above), with bit sets done by atomic CAS on the
// word and page allocation guarded by a mutex. It offers the read surface
// the scorer uses (Word, read with atomic loads, so W workers score
// concurrently) and converts to and from pstate.Table without copying a
// mask word (FromTable/Freeze transplant the backing arrays).
type AtomicTable struct {
	n, k, extra int
	dense       []uint64 // accessed with atomic loads/CAS
	pages       []atomic.Pointer[[]uint64]
	pageMu      sync.Mutex // serializes overflow page allocation
	vcount      []int64    // |V(p)|, accessed with atomic adds
	covered     int64      // vertices with ≥1 bit set (atomic; see Covered)
	retries     int64      // failed CAS attempts in Add (atomic)
}

// NewAtomicTable returns an empty concurrent table for n vertices and k
// partitions.
func NewAtomicTable(n, k int) *AtomicTable {
	return FromTable(pstate.NewTable(n, k))
}

// FromTable transplants a sequential table's state into a concurrent one.
// The pstate.Table is consumed (its backing arrays move; it resets to the
// unusable zero value); Freeze hands them back.
func FromTable(t *pstate.Table) *AtomicTable {
	n, k, words := t.N(), t.K(), t.Words()
	dense, pages, vcount, covered := t.Release()
	at := &AtomicTable{n: n, k: k, extra: words - 1, dense: dense, vcount: vcount, covered: covered}
	if at.extra > 0 {
		if pages == nil {
			pages = make([][]uint64, (n+pstate.PageVertices-1)/pstate.PageVertices)
		}
		at.pages = make([]atomic.Pointer[[]uint64], len(pages))
		for i := range pages {
			if pages[i] != nil {
				pg := pages[i]
				at.pages[i].Store(&pg)
			}
		}
	}
	return at
}

// Freeze converts the table back to a sequential pstate.Table, transplanting
// the backing arrays. The AtomicTable is consumed; all workers must have
// stopped before the call. For k > 64 the covered count is recounted
// exactly, since Add may have undercounted it (see there).
//
//hep:unsync single-owner transplant: every worker has stopped, the arrays move to the sequential table
func (t *AtomicTable) Freeze() *pstate.Table {
	covered := atomic.LoadInt64(&t.covered)
	var pages [][]uint64
	if t.extra > 0 {
		pages = make([][]uint64, len(t.pages))
		for i := range t.pages {
			if pg := t.pages[i].Load(); pg != nil {
				pages[i] = *pg
			}
		}
		covered = -1 // Adopt recounts
	}
	ft := pstate.Adopt(t.n, t.k, t.dense, pages, t.vcount, covered)
	*t = AtomicTable{}
	return ft
}

// N returns the vertex-domain size.
func (t *AtomicTable) N() int { return t.n }

// K returns the partition count.
func (t *AtomicTable) K() int { return t.k }

// Words returns ⌈k/64⌉, the number of mask words per vertex.
func (t *AtomicTable) Words() int { return t.extra + 1 }

// page returns the overflow words of v, or nil when its page is unallocated.
func (t *AtomicTable) page(v graph.V) []uint64 {
	pg := t.pages[int(v)/pstate.PageVertices].Load()
	if pg == nil {
		return nil
	}
	base := (int(v) % pstate.PageVertices) * t.extra
	return (*pg)[base : base+t.extra]
}

// ensurePage returns the overflow words of v, allocating the page on demand.
// Allocation is mutex-guarded so exactly one page wins; readers see it
// through the atomic pointer.
func (t *AtomicTable) ensurePage(v graph.V) []uint64 {
	pi := int(v) / pstate.PageVertices
	pg := t.pages[pi].Load()
	if pg == nil {
		t.pageMu.Lock()
		if pg = t.pages[pi].Load(); pg == nil {
			span := pstate.PageVertices
			if lo := pi * pstate.PageVertices; t.n-lo < span {
				span = t.n - lo
			}
			fresh := make([]uint64, span*t.extra)
			pg = &fresh
			t.pages[pi].Store(pg)
		}
		t.pageMu.Unlock()
	}
	base := (int(v) % pstate.PageVertices) * t.extra
	return (*pg)[base : base+t.extra]
}

// Has reports whether vertex v is replicated on partition p.
func (t *AtomicTable) Has(v graph.V, p int) bool {
	if p < 64 {
		return atomic.LoadUint64(&t.dense[v])>>(uint(p)&63)&1 != 0
	}
	ov := t.page(v)
	if ov == nil {
		return false
	}
	q := p - 64
	return atomic.LoadUint64(&ov[q>>6])>>(uint(q)&63)&1 != 0
}

// Add marks vertex v replicated on partition p with a CAS loop on the
// vertex's mask word, reporting whether the bit was newly set. Exactly one
// concurrent adder of the same bit wins, so |V(p)| counts stay exact.
func (t *AtomicTable) Add(v graph.V, p int) bool {
	var w *uint64
	var b uint64
	if p < 64 {
		w, b = &t.dense[v], 1<<(uint(p)&63)
	} else {
		ov := t.ensurePage(v)
		q := p - 64
		w, b = &ov[q>>6], 1<<(uint(q)&63)
	}
	for {
		old := atomic.LoadUint64(w)
		if old&b != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(w, old, old|b) {
			atomic.AddInt64(&t.vcount[p], 1)
			if old == 0 && t.otherWordsZero(v, w) {
				// The CAS winner observed the word at zero, so for k ≤ 64
				// (one word per vertex) exactly one adder counts the vertex.
				// For k > 64 two workers landing first bits in *different*
				// words of the same vertex can each see the other's bit
				// (CAS a, CAS b, read b, read a), and then neither counts it;
				// both counting is impossible. The running value may
				// undercount by that sliver until Freeze recounts it.
				atomic.AddInt64(&t.covered, 1)
			}
			return true
		}
		// A lost race: another worker's CAS landed on this mask word first.
		// The retry count is the direct price of mask-word contention, so it
		// is kept unconditionally — the add sits on an already-contended
		// path, one more uncontended-word add is noise.
		atomic.AddInt64(&t.retries, 1)
	}
}

// otherWordsZero reports whether every mask word of v other than won holds
// zero — the "was this vertex uncovered" check behind the covered counter.
// Trivially true for k ≤ 64, where won is the vertex's only word.
func (t *AtomicTable) otherWordsZero(v graph.V, won *uint64) bool {
	if t.extra == 0 {
		return true
	}
	if &t.dense[v] != won && atomic.LoadUint64(&t.dense[v]) != 0 {
		return false
	}
	ov := t.page(v)
	if ov == nil {
		return true
	}
	for i := range ov {
		if &ov[i] != won && atomic.LoadUint64(&ov[i]) != 0 {
			return false
		}
	}
	return true
}

// Covered returns the running number of vertices with at least one replica
// bit set — the cheap numerator's partner for live replication-factor
// sampling. Exact for k ≤ 64. For k > 64, samples taken mid-pass may read
// slightly low (first-bit races, see Add); Freeze recounts exactly.
func (t *AtomicTable) Covered() int64 { return atomic.LoadInt64(&t.covered) }

// Retries returns the number of failed CAS attempts Add has absorbed — the
// mask-word contention between placement workers. Read it before Freeze
// (which consumes the table).
func (t *AtomicTable) Retries() int64 { return atomic.LoadInt64(&t.retries) }

// Word returns mask word wi (partitions 64·wi .. 64·wi+63) of vertex v.
func (t *AtomicTable) Word(v graph.V, wi int) uint64 {
	if wi == 0 {
		return atomic.LoadUint64(&t.dense[v])
	}
	ov := t.page(v)
	if ov == nil {
		return 0
	}
	return atomic.LoadUint64(&ov[wi-1])
}

// VertexCount returns |V(p)| for one partition.
func (t *AtomicTable) VertexCount(p int) int64 { return atomic.LoadInt64(&t.vcount[p]) }
