package obs

import "sync/atomic"

// CounterID names one hot-path event counter. Counters are monotonic event
// totals; the per-worker lane layout (Counters) keeps incrementing them off
// the coherence-traffic hot path.
type CounterID uint8

// The hot-path events that explain parallel behavior. Every layer of the
// pipeline folds into the same set, so one snapshot answers "where did the
// run spend its synchronization budget".
const (
	// CtrEdgesStreamed counts edges delivered by the batch engine (and the
	// out-of-core batch loop) — the live progress signal.
	CtrEdgesStreamed CounterID = iota
	// CtrBatches counts batches dispatched through the engine (including the
	// single-worker degenerate path and out-of-core buffer fills).
	CtrBatches
	// CtrCASRetries counts failed compare-and-swap attempts on the concurrent
	// replica table (shard.AtomicTable) — the direct price of mask-word
	// contention between placement workers.
	CtrCASRetries
	// CtrReorderStalls counts batches that arrived at the ordered collector
	// out of sequence and had to wait in the reorder buffer — worker skew
	// made visible.
	CtrReorderStalls
	// CtrFolds counts lane-fold windows (reduction lanes and load-delta lanes
	// merged into global state at batch/region boundaries).
	CtrFolds
	// CtrWarmSpills counts batch vertices that overflowed the warm-start
	// bucket pool and fell back to per-region probing.
	CtrWarmSpills
	// CtrSpillBytes counts bytes written to the delta-varint spill runs
	// (E_h2h and other out-of-core intermediates).
	CtrSpillBytes
	// CtrFallbackEdges counts edges placed by the out-of-core per-edge
	// informed-HDRF fallback instead of region expansion.
	CtrFallbackEdges
	// CtrExpansionEdges counts edges placed by region expansion.
	CtrExpansionEdges
	// CtrRegions counts expansion regions grown.
	CtrRegions
	// CtrWarmMaskPasses counts batch vertices indexed by the warm-start
	// bucket build (one mask iteration per vertex per batch).
	CtrWarmMaskPasses
	// CtrWarmScanProbes counts per-vertex replica probes spent on the warm
	// start outside the bucket build (overflow probes, repeat-region scans).
	CtrWarmScanProbes
	// CtrWarmRescans counts repeat regions that rescanned for fresh replicas
	// because the batch-start bucket index predates an earlier region.
	CtrWarmRescans
	// CtrParallelBatches counts out-of-core batches whose regions were grown
	// by concurrent expanders.
	CtrParallelBatches
	// CtrChunksLent counts decoded edge slabs a source lent zero-copy to the
	// batch engine or Buffered's buffer fill (graph.ChunkStream — batches
	// alias the producer's buffers instead of being re-copied on the
	// dispatch thread).
	CtrChunksLent
	// CtrChunkCopyFallbacks counts slabs shard.Lend filled by per-edge copy
	// because the source does not lend chunks (the H2H spill stores, plain
	// user streams); each slab holds at most one batch ceiling of edges.
	CtrChunkCopyFallbacks
	// CtrBytesCopiedDispatch counts bytes of edge data copied into those
	// slabs on the dispatch thread — exactly 0 for a lending source.
	CtrBytesCopiedDispatch
	// CtrBatchResizes counts dispatch batches whose adaptive size differed
	// from the previous batch's (capacity-aware batch sizing at work).
	CtrBatchResizes
	// CtrRefineRounds counts local-search refinement rounds executed by the
	// post-pass (internal/refine), including a round that was reverted.
	CtrRefineRounds
	// CtrMovesApplied counts boundary-vertex moves the refinement pass
	// applied (a move that claimed at least one edge).
	CtrMovesApplied
	// CtrMovesRejectedBalance counts refinement moves rejected because the
	// target partition had no headroom under the (1+ε)·m/k balance guard.
	CtrMovesRejectedBalance
	// CtrGainRecomputes counts candidate-gain evaluations in the refinement
	// scan phase (one per boundary vertex × hosting partition × target).
	CtrGainRecomputes

	// NumCounters is the number of counter slots.
	NumCounters
)

// counterNames are the stable machine-readable names used by the trace-JSON
// schema and the expvar endpoint.
var counterNames = [NumCounters]string{
	CtrEdgesStreamed:        "edges_streamed",
	CtrBatches:              "batches",
	CtrCASRetries:           "cas_retries",
	CtrReorderStalls:        "reorder_stalls",
	CtrFolds:                "fold_windows",
	CtrWarmSpills:           "warm_bucket_spills",
	CtrSpillBytes:           "varint_spill_bytes",
	CtrFallbackEdges:        "fallback_edges",
	CtrExpansionEdges:       "expansion_edges",
	CtrRegions:              "regions",
	CtrWarmMaskPasses:       "warm_mask_passes",
	CtrWarmScanProbes:       "warm_scan_probes",
	CtrWarmRescans:          "warm_rescans",
	CtrParallelBatches:      "parallel_batches",
	CtrChunksLent:           "chunks_lent",
	CtrChunkCopyFallbacks:   "chunk_copy_fallbacks",
	CtrBytesCopiedDispatch:  "bytes_copied_dispatch",
	CtrBatchResizes:         "batch_resizes",
	CtrRefineRounds:         "refine_rounds",
	CtrMovesApplied:         "moves_applied",
	CtrMovesRejectedBalance: "moves_rejected_balance",
	CtrGainRecomputes:       "gain_recomputes",
}

// String returns the counter's stable snake_case name.
func (id CounterID) String() string {
	if int(id) < len(counterNames) {
		return counterNames[id]
	}
	return "unknown"
}

// GaugeID names one high-water-mark gauge. Gauges keep a maximum, not a sum,
// so they live outside the summed lanes.
type GaugeID uint8

const (
	// GaugePeakExpanders is the largest number of expansion regions ever in
	// flight at once.
	GaugePeakExpanders GaugeID = iota
	// GaugePeakBufferBytes is the high-water mark of buffer-scaled
	// batch-local allocation in the out-of-core engine.
	GaugePeakBufferBytes

	// NumGauges is the number of gauge slots.
	NumGauges
)

var gaugeNames = [NumGauges]string{
	GaugePeakExpanders:   "peak_expanders",
	GaugePeakBufferBytes: "peak_buffer_bytes",
}

// String returns the gauge's stable snake_case name.
func (g GaugeID) String() string {
	if int(g) < len(gaugeNames) {
		return gaugeNames[g]
	}
	return "unknown"
}

// cacheLine is the assumed coherence granule; lanes are padded to it so two
// workers' counters never share a line (the shard.Lanes discipline).
const cacheLine = 64

// lane is one worker's padded counter block. Within a lane the slots share
// cache lines — harmless, the lane has a single writer; the padding keeps
// *different* workers' lanes apart.
type lane struct {
	v [NumCounters]atomic.Int64
	_ [(cacheLine - (int(NumCounters)*8)%cacheLine) % cacheLine]byte
}

// Counters is the hot-path counter surface: one padded lane per worker,
// summed on read. Writers call Add on their own lane (an uncontended atomic
// add on a private cache line); readers — the JSON encoder, the expvar
// endpoint, the progress reporter — sum the lanes with atomic loads, so
// counters are safe to scrape while a run is in flight.
//
// The intended discipline is the batch-boundary fold of the sharded engine:
// hot loops accumulate into plain locals and Add the aggregate once per
// batch/region, so the per-edge cost of observability is a handful of adds
// per thousands of edges. A nil *Counters is the disabled form: Add, SetMax
// and the readers are no-ops, so call sites need no enabled-check branches.
type Counters struct {
	lanes  []lane
	hists  []histLane // log2-bucket histogram lanes, same per-worker layout
	gauges [NumGauges]atomic.Int64
}

// NewCounters returns counters with one lane per worker (minimum one).
// Worker ids at or beyond w clamp to the last lane, so a caller that resolves
// its worker count later can never index out of range.
func NewCounters(w int) *Counters {
	if w < 1 {
		w = 1
	}
	return &Counters{lanes: make([]lane, w), hists: make([]histLane, w)}
}

// Add accumulates d into worker w's lane. Nil-safe.
//
//hep:noalloc
func (c *Counters) Add(w int, id CounterID, d int64) {
	if c == nil || d == 0 {
		return
	}
	if w < 0 {
		w = 0
	}
	if w >= len(c.lanes) {
		w = len(c.lanes) - 1
	}
	c.lanes[w].v[id].Add(d)
}

// Total sums the lanes of one counter. Nil-safe (returns 0).
//
//hep:noalloc
func (c *Counters) Total(id CounterID) int64 {
	if c == nil {
		return 0
	}
	var t int64
	for i := range c.lanes {
		t += c.lanes[i].v[id].Load()
	}
	return t
}

// SetMax raises gauge g to v if v is larger (atomic max; cold path). Nil-safe.
//
//hep:noalloc
func (c *Counters) SetMax(g GaugeID, v int64) {
	if c == nil {
		return
	}
	for {
		cur := c.gauges[g].Load()
		if v <= cur || c.gauges[g].CompareAndSwap(cur, v) {
			return
		}
	}
}

// Gauge returns the current value of gauge g. Nil-safe (returns 0).
//
//hep:noalloc
func (c *Counters) Gauge(g GaugeID) int64 {
	if c == nil {
		return 0
	}
	return c.gauges[g].Load()
}

// Lanes returns the number of worker lanes (0 for nil).
func (c *Counters) Lanes() int {
	if c == nil {
		return 0
	}
	return len(c.lanes)
}

// CounterSnapshot returns every counter total keyed by its stable name.
// Nil-safe (returns an empty map).
func (c *Counters) CounterSnapshot() map[string]int64 {
	out := make(map[string]int64, NumCounters)
	for id := CounterID(0); id < NumCounters; id++ {
		out[id.String()] = c.Total(id)
	}
	return out
}

// GaugeSnapshot returns every gauge keyed by its stable name. Nil-safe.
func (c *Counters) GaugeSnapshot() map[string]int64 {
	out := make(map[string]int64, NumGauges)
	for g := GaugeID(0); g < NumGauges; g++ {
		out[g.String()] = c.Gauge(g)
	}
	return out
}
