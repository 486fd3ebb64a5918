package obs

import "sync/atomic"

// CounterID names one hot-path event counter. Counters are monotonic event
// totals, added once per batch or region, never per edge.
type CounterID uint8

// The hot-path events that explain parallel behavior. Every layer of the
// pipeline folds into the same set, so one snapshot answers "where did the
// run spend its synchronization budget".
const (
	// CtrEdgesStreamed counts edges delivered by the placement batch loop
	// (and the out-of-core batch loop) — the live progress signal.
	CtrEdgesStreamed CounterID = iota
	// CtrBatches counts batches placed by the placement batch loop and
	// out-of-core buffer fills.
	CtrBatches
	// CtrCASRetries counted failed compare-and-swap attempts on the
	// concurrent replica table of multi-worker placement. It reads 0.
	//
	// Deprecated: placement runs one worker; kept for the benchmark's
	// ledger (bench/).
	CtrCASRetries
	// CtrReorderStalls counted batches that waited in the multi-worker
	// ordered collector's reorder buffer. It reads 0.
	//
	// Deprecated: placement runs one worker; kept for the benchmark's
	// ledger (bench/).
	CtrReorderStalls
	// retiredFolds counted per-worker load-lane folds, which placement no
	// longer has; nothing writes it. The slot keeps "fold_windows"
	// registered so ValidateReport still accepts hep-trace/v1 traces that
	// carry it.
	retiredFolds
	// CtrWarmSpills counts batch vertices that overflowed the warm-start
	// bucket pool and fell back to per-region probing.
	CtrWarmSpills
	// CtrSpillBytes counts bytes written to the delta-varint spill runs
	// (E_h2h and other out-of-core intermediates).
	CtrSpillBytes
	// retiredFallbackEdges counted edges placed by the out-of-core per-edge
	// informed-HDRF fallback, which Buffered no longer has; nothing writes
	// it. The slot keeps "fallback_edges" registered so ValidateReport still
	// accepts hep-trace/v1 traces that carry it.
	retiredFallbackEdges
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
	// retiredParallelBatches counted out-of-core batches grown by concurrent
	// region expanders, which the engine no longer has; nothing writes it.
	// The slot keeps "parallel_batches" registered so ValidateReport still
	// accepts hep-trace/v1 traces that carry it.
	retiredParallelBatches
	// CtrChunksLent counts decoded edge slabs a source lent zero-copy to the
	// placement batch loop or Buffered's buffer fill (graph.ChunkStream — batches
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
	// CtrBatchResizes counted batches whose adaptive size differed from
	// the previous batch's. Batches have one size now, so it reads 0.
	//
	// Deprecated: kept for the benchmark's ledger (bench/).
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
	retiredFolds:            "fold_windows",
	CtrWarmSpills:           "warm_bucket_spills",
	CtrSpillBytes:           "varint_spill_bytes",
	retiredFallbackEdges:    "fallback_edges",
	CtrExpansionEdges:       "expansion_edges",
	CtrRegions:              "regions",
	CtrWarmMaskPasses:       "warm_mask_passes",
	CtrWarmScanProbes:       "warm_scan_probes",
	CtrWarmRescans:          "warm_rescans",
	retiredParallelBatches:  "parallel_batches",
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

// GaugeID names one high-water-mark gauge. Gauges keep a maximum, not a
// sum.
type GaugeID uint8

const (
	// retiredExpanderPeak recorded the most concurrent region expanders
	// ever in flight, which the out-of-core engine no longer has; nothing
	// writes it. The slot keeps "peak_expanders" registered so
	// ValidateReport still accepts hep-trace/v1 traces that carry it.
	retiredExpanderPeak GaugeID = iota
	// GaugePeakBufferBytes is the high-water mark of buffer-scaled
	// batch-local allocation in the out-of-core engine.
	GaugePeakBufferBytes

	// NumGauges is the number of gauge slots.
	NumGauges
)

var gaugeNames = [NumGauges]string{
	retiredExpanderPeak:  "peak_expanders",
	GaugePeakBufferBytes: "peak_buffer_bytes",
}

// String returns the gauge's stable snake_case name.
func (g GaugeID) String() string {
	if int(g) < len(gaugeNames) {
		return gaugeNames[g]
	}
	return "unknown"
}

// Counters is the hot-path counter surface: one block of atomics. Writers
// Add at batch and region boundaries; readers — the JSON encoder, the
// expvar endpoint, the progress reporter — load the same atomics, so
// counters are safe to scrape while a run is in flight.
//
// The intended discipline is the batch-boundary fold: hot loops accumulate
// into plain locals and Add the aggregate once per batch/region, so the
// per-edge cost of observability is a handful of adds per thousands of
// edges. A nil *Counters is the disabled form: Add, SetMax
// and the readers are no-ops, so call sites need no enabled-check branches.
type Counters struct {
	v      [NumCounters]atomic.Int64
	hists  [NumHists]hist // log2-bucket histograms
	gauges [NumGauges]atomic.Int64
}

// NewCounters returns zeroed counters.
func NewCounters() *Counters { return &Counters{} }

// Add accumulates d into counter id. Nil-safe.
//
//hep:noalloc
func (c *Counters) Add(id CounterID, d int64) {
	if c == nil || d == 0 {
		return
	}
	c.v[id].Add(d)
}

// Total returns the current value of one counter. Nil-safe (returns 0).
//
//hep:noalloc
func (c *Counters) Total(id CounterID) int64 {
	if c == nil {
		return 0
	}
	return c.v[id].Load()
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
