package ooc

import (
	"fmt"
	"math"

	"hep/internal/graph"
	"hep/internal/obs"
	"hep/internal/part"
	"hep/internal/pstate"
	"hep/internal/shard"
)

// DefaultBufferEdges is the default batch size B (1Mi edges ≈ 140 MiB of
// batch-local state, see BytesPerBufferedEdge).
const DefaultBufferEdges = 1 << 20

// BytesPerBufferedEdge is the worst-case batch-local allocation per buffered
// edge. Per edge: the edge itself (8) + two adjacency entries (adjV+adjE,
// 2×8) + an assigned flag (1) = 25 bytes. Per batch vertex, of which an edge
// introduces at most two: verts (4) + off (4) + udeg (4) + activePos (4) +
// active (4) + warm bucket pool (warmPoolPerVertex×4 = 12) + overflow (4) =
// 36, plus the expander state (member 1 + touched 4 + heap pos/ids/keys 12 +
// candidate buffer 4 + candidate position mark ⅛ = 21.125) = 57.125 bytes.
// Total 25 + 2·57.125 = 139.25, rounded up to 140. The mark is
// byte-granular, ⌈2B/8⌉ bytes, so at B = 1 it takes one whole byte and uses
// all 0.75 B of slack; at every larger B it takes less, so 140·B holds at
// every B ≥ 1. batchState.bytes() tracks the real allocation against this
// bound. State that does not scale with the buffer — the O(|V|) vertex
// arrays (local-id map, vertex-major replica table) and the O(k)
// per-partition arrays (bucket heads, region flags, like the result's own
// counts) — is the fixed resident baseline of the out-of-core model, not
// part of the buffer budget.
const BytesPerBufferedEdge = 140

// BufferForBudget returns the largest buffer size B whose worst-case
// batch-local allocation fits budgetBytes (capped so the batch-local int32
// bookkeeping cannot overflow).
func BufferForBudget(budgetBytes int64) int {
	return int(min(budgetBytes/BytesPerBufferedEdge, maxBufferEdges))
}

// BufferedStats instruments a Buffered run.
type BufferedStats struct {
	// Batches is the number of buffer fills processed.
	Batches int
	// Regions is the number of expansion regions grown.
	Regions int64
	// ExpansionEdges counts edges placed by neighborhood expansion: every
	// edge of the run.
	ExpansionEdges int64
	// PeakBufferBytes is the high-water mark of buffer-scaled batch-local
	// allocations (edge buffer, mini-CSR, per-batch vertex state, bucket
	// pool and expander state; the O(k) fixed baseline is excluded).
	// Guaranteed to stay ≤ BytesPerBufferedEdge per buffered edge.
	PeakBufferBytes int64

	// ParallelBatches is always 0. It counted batches grown by concurrent
	// expanders.
	//
	// Deprecated: nothing writes it; it stays only because the repository
	// benchmark (bench/staged.go) reads it.
	ParallelBatches int

	// WarmMaskPasses counts batch vertices indexed by the warm-start bucket
	// build: one per batch vertex per batch, independent of k (the build
	// walks each counted vertex's replica mask a small constant number of
	// times — see pstate.Buckets — never once per region like the retired
	// scan).
	WarmMaskPasses int64
	// WarmScanProbes counts per-vertex replica probes spent on the warm
	// start outside the bucket build (bucket-pool overflow, legacy scans).
	// The retired warm start paid one probe per active vertex per region —
	// k·vertices per batch; the regression suite pins this near zero.
	WarmScanProbes int64
	// WarmRescans counts repeat regions (same partition expanded twice in
	// one batch) that had to rescan the active list because the batch-start
	// bucket index predates the first region's replicas.
	WarmRescans int64
}

// Buffered is the buffered streaming edge partitioner of the out-of-core
// engine, in the spirit of buffered streaming edge partitioning (Chhabra et
// al., 2024): it fills a B-edge buffer from the stream, builds a mini-CSR
// over the batch, and grows NE++-style expansion regions over it — a region
// is seeded by a vertex with replica affinity to the target partition
// (stitching the batch onto the global state left by earlier batches),
// expands by moving the minimum-external-degree member to the core, and
// assigns exactly the edges internal to the region. Regions are grown one
// after another until the batch is placed, so every edge is placed by
// expansion, with no per-edge escape (see expand for why that ends).
//
// Resident state is O(|V|) vertex arrays plus O(B) batch-local buffers; the
// edge list is streamed twice (a discovery scan for |V| and |E|, then the
// partition pass) and never materialized. The output is deterministic.
//
// Quality scales with the buffer: at B ≈ |E|/4 the partitioner clearly
// beats plain HDRF on power-law graphs, while for B below a few percent of
// |E| the tiny expansion regions lose their edge over per-edge streaming
// (the same buffer/quality trade the buffered streaming literature
// reports). Size B as large as the budget allows.
type Buffered struct {
	part.SinkHolder

	// BufferEdges is the buffer size B in edges (default DefaultBufferEdges).
	// Derive it from a byte budget with BufferForBudget.
	BufferEdges int
	// Lambda was the balance weight of the retired per-edge HDRF fallback.
	//
	// Deprecated: ignored; it stays only because the repository benchmark
	// (bench/staged.go) sets it.
	Lambda float64
	// Alpha is the balance bound α ≥ 1 (default 1.05).
	Alpha float64
	// Workers was the worker count of the retired per-edge HDRF fallback.
	// Buffered runs one path at every worker count.
	//
	// Deprecated: ignored; it stays only because the repository benchmark
	// (bench/staged.go) sets it.
	Workers int
	// Obs is the observability hook (nil = disabled): the discovery scan and
	// the buffered streaming loop record phase spans, and every LastStats
	// event additionally folds into the obs counters at batch boundaries —
	// the single observability surface LastStats is the per-run view of.
	Obs *obs.Obs

	// LastStats holds the statistics of the most recent run.
	LastStats BufferedStats

	// legacyWarmScan routes the warm start through the retired
	// one-probe-per-active-vertex-per-region scan instead of the bucket
	// index. Test-only: the equivalence suite pins the candidate iteration
	// bit-for-bit against this path.
	legacyWarmScan bool
}

// Name implements part.Algorithm.
func (b *Buffered) Name() string { return "Buffered" }

// maxBufferEdges caps the buffer so the batch-local int32 bookkeeping
// cannot overflow: adjacency offsets and local vertex ids range up to
// 2·bufEdges and warm-bucket pool offsets up to 2·warmPoolPerVertex·bufEdges,
// all of which must stay within int32.
const maxBufferEdges = math.MaxInt32 / (2 * warmPoolPerVertex)

// warmPoolPerVertex sizes the warm-start bucket pool: on average this many
// replica entries per batch vertex before vertices spill to the overflow
// list (comfortably above the replication factors power-law runs produce,
// so overflow probes — counted by WarmScanProbes — stay near zero).
const warmPoolPerVertex = 3

func (b *Buffered) params() (bufEdges int, alpha float64) {
	bufEdges = b.BufferEdges
	if bufEdges <= 0 {
		bufEdges = DefaultBufferEdges
	}
	if bufEdges > maxBufferEdges {
		bufEdges = maxBufferEdges
	}
	alpha = b.Alpha
	if !(alpha >= 1) {
		alpha = 1.05
	}
	return bufEdges, alpha
}

// batchState holds the reusable batch-local arrays. Everything here is
// allocated once per Partition call, sized by the buffer, and counted
// against the buffer budget.
type batchState struct {
	batch    []graph.Edge // the buffered edges
	assigned []bool       // per batch edge

	verts     []graph.V // local id -> global id
	off       []int32   // CSR segment ends: segment(v) = adj[start(v):off[v]]
	udeg      []int32   // per local vertex: unassigned incident edges
	activePos []int32   // position in active, -1 when exhausted
	active    []int32   // local vertices with udeg > 0
	expanded  []bool    // per partition: region grown this batch

	adjV []int32 // adjacency: neighbor local id
	adjE []int32 // adjacency: batch edge index

	// buckets is the warm-start index: batch vertices bucketed by hosting
	// partition, one mask iteration per vertex per batch.
	buckets *pstate.Buckets

	// ex is the region-growing state, counted against the buffer budget.
	ex *expanderState
}

func newBatchState(bufEdges, k int) *batchState {
	maxV := 2 * bufEdges
	return &batchState{
		batch:     make([]graph.Edge, 0, bufEdges),
		assigned:  make([]bool, bufEdges),
		verts:     make([]graph.V, 0, maxV),
		off:       make([]int32, maxV),
		udeg:      make([]int32, maxV),
		activePos: make([]int32, maxV),
		active:    make([]int32, 0, maxV),
		expanded:  make([]bool, k),
		adjV:      make([]int32, 2*bufEdges),
		adjE:      make([]int32, 2*bufEdges),
		buckets:   pstate.NewBuckets(k, warmPoolPerVertex*maxV, maxV),
		ex:        newExpanderState(maxV),
	}
}

// bytes returns the total buffer-scaled batch-local allocation — the
// quantity BytesPerBufferedEdge bounds. The O(k) pieces (bucket heads,
// expanded flags) belong to the fixed resident baseline and are excluded,
// like the O(|V|) vertex arrays.
func (st *batchState) bytes() int64 {
	return int64(cap(st.batch))*8 + int64(cap(st.assigned)) +
		int64(cap(st.verts))*4 + int64(cap(st.off))*4 + int64(cap(st.udeg))*4 +
		int64(cap(st.activePos))*4 + int64(cap(st.active))*4 +
		int64(cap(st.adjV))*4 + int64(cap(st.adjE))*4 +
		st.buckets.Bytes() - int64(st.buckets.K()+1)*4 + st.ex.bytes()
}

// Partition implements part.Algorithm: one discovery scan for |V| and |E|,
// then buffer-fill / expand / flush over the stream.
func (b *Buffered) Partition(src graph.EdgeStream, k int) (*part.Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("ooc: k must be ≥ 1, got %d", k)
	}
	bufEdges, alpha := b.params()
	b.LastStats = BufferedStats{}

	sp := b.Obs.Span("discover")
	n, m, err := discover(src)
	if err != nil {
		return nil, err
	}
	sp.Edges(m).End()
	// Per-pass denominator: the progress reporter scopes percentages to the
	// current root phase, so the discovery scan and the partition pass each
	// run 0→100% over m edges.
	b.Obs.SetTotalEdges(m)
	if m > 0 && int64(bufEdges) > m {
		bufEdges = int(m) // no point sizing the buffer past the graph
	}
	n = max(n, src.NumVertices())
	res := part.NewResult(n, k)
	res.Sink = b.Sink
	// ⌈α·m/k⌉ with α capped at k: no partition can hold more than m edges,
	// and the cap keeps a huge α from overflowing the conversion.
	capacity := int64(math.Ceil(min(alpha, float64(k)) * float64(m) / float64(k)))

	// O(|V|) resident baseline: the local-id map.
	localID := make([]int32, n)
	for i := range localID {
		localID[i] = -1
	}

	st := newBatchState(bufEdges, k)
	b.LastStats.PeakBufferBytes = st.bytes()

	run := func() error {
		if err := b.processBatch(st, localID, res, capacity); err != nil {
			return err
		}
		if by := st.bytes(); by > b.LastStats.PeakBufferBytes {
			b.LastStats.PeakBufferBytes = by
		}
		b.Obs.Counters().SetMax(obs.GaugePeakBufferBytes, b.LastStats.PeakBufferBytes)
		st.batch = st.batch[:0]
		return nil
	}
	sp = b.Obs.Span("expand-stream")
	// Fill the buffer by bulk copy from lent slabs (a source that does not
	// lend is copied into slabs by shard.Lend). Buffer boundaries fall every
	// bufEdges edges whatever the slab size, so the batches — and every
	// placement downstream — do not depend on how the source is chunked.
	var batchErr error
	cs, lends := shard.Lend(src, shard.DefaultBatchEdges, b.Obs.Counters())
	err = cs.Chunks(func(edges []graph.Edge, release func()) bool {
		defer release()
		if lends {
			b.Obs.Counters().Add(obs.CtrChunksLent, 1)
		}
		for len(edges) > 0 {
			take := min(bufEdges-len(st.batch), len(edges))
			st.batch = append(st.batch, edges[:take]...)
			edges = edges[take:]
			if len(st.batch) == bufEdges {
				if batchErr = run(); batchErr != nil {
					return false
				}
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if batchErr != nil {
		return nil, batchErr
	}
	if len(st.batch) > 0 {
		if err := run(); err != nil {
			return nil, err
		}
	}
	sp.Edges(m).End()
	return res, nil
}

// processBatch builds the mini-CSR over st.batch and places every batch edge.
func (b *Buffered) processBatch(st *batchState, localID []int32, res *part.Result, capacity int64) error {
	b.LastStats.Batches++
	pre := b.LastStats
	batch := st.batch

	// Local vertex ids and batch degrees (udeg doubles as the degree
	// counter during construction).
	st.verts = st.verts[:0]
	local := func(g graph.V) {
		lid := localID[g]
		if lid < 0 {
			lid = int32(len(st.verts))
			localID[g] = lid
			st.verts = append(st.verts, g)
			st.udeg[lid] = 0
		}
		st.udeg[lid]++
	}
	for i := range batch {
		u, v := batch[i].U, batch[i].V
		// A stream whose second pass names an id its discovery scan did not
		// see is an error. The compare stands in for the bounds checks of
		// localID, which the compiler then drops.
		if uint(u) >= uint(len(localID)) || uint(v) >= uint(len(localID)) {
			return graph.VertexRangeError(u, v, len(localID))
		}
		local(u)
		local(v)
	}
	nv := len(st.verts)

	// CSR offsets: off[v] is the fill cursor during construction and the
	// *end* of v's segment afterwards; start(v) is off[v-1] (0 for v=0).
	var sum int32
	for v := 0; v < nv; v++ {
		sum += st.udeg[v]
		st.off[v] = sum - st.udeg[v]
	}
	for i := range batch {
		lu, lv := localID[batch[i].U], localID[batch[i].V]
		st.adjV[st.off[lu]], st.adjE[st.off[lu]] = lv, int32(i)
		st.off[lu]++
		st.adjV[st.off[lv]], st.adjE[st.off[lv]] = lu, int32(i)
		st.off[lv]++
	}

	// Warm-start index: every batch vertex's replica mask iterated once,
	// bucketing vertices by hosting partition — the candidate iteration
	// that retired the one-probe-per-vertex-per-region warm scan.
	st.buckets.Build(res.Reps, st.verts)
	b.LastStats.WarmMaskPasses += int64(nv)

	for i := range batch {
		st.assigned[i] = false
	}
	for p := range st.expanded {
		st.expanded[p] = false
	}

	// Active list: every batch vertex starts with unassigned edges.
	st.active = st.active[:0]
	for v := 0; v < nv; v++ {
		st.activePos[v] = int32(len(st.active))
		st.active = append(st.active, int32(v))
		st.ex.member[v] = false
	}
	if err := b.expand(st, res, capacity); err != nil {
		return err
	}

	// Reset the shared local-id map for the next batch.
	for _, g := range st.verts {
		localID[g] = -1
	}

	// Batch-boundary fold: every LastStats delta this batch produced goes
	// into the obs counters in one pass, keeping the hot loops above
	// counter-free.
	c := b.Obs.Counters()
	c.Add(obs.CtrBatches, 1)
	c.Add(obs.CtrEdgesStreamed, int64(len(batch)))
	c.Add(obs.CtrRegions, b.LastStats.Regions-pre.Regions)
	c.Add(obs.CtrExpansionEdges, b.LastStats.ExpansionEdges-pre.ExpansionEdges)
	c.Add(obs.CtrWarmMaskPasses, b.LastStats.WarmMaskPasses-pre.WarmMaskPasses)
	c.Add(obs.CtrWarmScanProbes, b.LastStats.WarmScanProbes-pre.WarmScanProbes)
	c.Add(obs.CtrWarmRescans, b.LastStats.WarmRescans-pre.WarmRescans)
	c.Add(obs.CtrWarmSpills, int64(len(st.buckets.Overflow())))
	// One quality sample per buffered batch: running RF, balance and load
	// spread land in the series ring right after the counter fold, on the
	// same batch boundary — never per edge or per region.
	res.SampleQuality(b.Obs)
	return nil
}

// start returns the adjacency segment start of local vertex v.
func (st *batchState) start(v int32) int32 {
	if v == 0 {
		return 0
	}
	return st.off[v-1]
}

// pickPartition returns the least-loaded partition below capacity, or -1.
func pickPartition(res *part.Result, capacity int64) int {
	best := -1
	for p := 0; p < res.K; p++ {
		if res.Counts[p] >= capacity {
			continue
		}
		if best < 0 || res.Counts[p] < res.Counts[best] {
			best = p
		}
	}
	return best
}
