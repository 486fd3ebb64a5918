package obs

import (
	"math/bits"
	"sync/atomic"
)

// HistID names one log-bucketed latency/size histogram. Like counters,
// histograms live in per-worker cache-line-padded lanes and are observed at
// batch/region boundaries only — one Observe per batch, never per edge.
type HistID uint8

const (
	// HistBatchNs is the wall time placement spent on one batch (one
	// PlaceBatch call).
	HistBatchNs HistID = iota
	// HistRegionEdges is the number of edges one expansion region placed.
	HistRegionEdges
	// HistStallNs was how long a batch waited in the multi-worker ordered
	// collector's reorder buffer. It records nothing.
	//
	// Deprecated: placement runs one worker; kept for the benchmark's
	// ledger (bench/).
	HistStallNs

	// NumHists is the number of histogram slots.
	NumHists
)

// histNames are the stable machine-readable histogram names used by the
// trace-JSON schema and the Prometheus exposition.
var histNames = [NumHists]string{
	HistBatchNs:     "batch_latency_ns",
	HistRegionEdges: "region_edges",
	HistStallNs:     "reorder_stall_ns",
}

// String returns the histogram's stable snake_case name.
func (id HistID) String() string {
	if int(id) < len(histNames) {
		return histNames[id]
	}
	return "unknown"
}

// HistBuckets is the number of log2 buckets per histogram: bucket i counts
// observed values whose bit length is i (bucket 0 holds v ≤ 0), so bucket i
// spans [2^(i−1), 2^i) and the full int64 range needs 65 buckets.
const HistBuckets = 65

// histBucket maps a value to its log2 bucket.
func histBucket(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// histLane is one worker's padded histogram block, same single-writer
// discipline as lane: slots within a lane may share cache lines, different
// workers' lanes never do.
type histLane struct {
	v   [NumHists][HistBuckets]atomic.Int64
	sum [NumHists]atomic.Int64
	_   [(cacheLine - (int(NumHists)*(HistBuckets+1)*8)%cacheLine) % cacheLine]byte
}

// Observe adds v to histogram id in worker w's lane. Nil-safe; negative
// values clamp into bucket 0 with no sum contribution.
//
//hep:noalloc
func (c *Counters) Observe(w int, id HistID, v int64) {
	if c == nil {
		return
	}
	if w < 0 {
		w = 0
	}
	if w >= len(c.hists) {
		w = len(c.hists) - 1
	}
	l := &c.hists[w]
	l.v[id][histBucket(v)].Add(1)
	if v > 0 {
		l.sum[id].Add(v)
	}
}

// HistogramRecord is one folded histogram as emitted by the trace report:
// per-bucket counts (HistBuckets log2 buckets) plus the sum of observations.
type HistogramRecord struct {
	Counts []int64 `json:"counts"`
	Sum    int64   `json:"sum"`
}

// HistCount returns the total number of observations in histogram id,
// summed over lanes. Nil-safe (returns 0).
func (c *Counters) HistCount(id HistID) int64 {
	if c == nil {
		return 0
	}
	var n int64
	for i := range c.hists {
		for b := 0; b < HistBuckets; b++ {
			n += c.hists[i].v[id][b].Load()
		}
	}
	return n
}

// HistRecord folds histogram id across lanes into a HistogramRecord.
// Nil-safe (returns a zero-count record).
func (c *Counters) HistRecord(id HistID) HistogramRecord {
	rec := HistogramRecord{Counts: make([]int64, HistBuckets)}
	if c == nil {
		return rec
	}
	for i := range c.hists {
		for b := 0; b < HistBuckets; b++ {
			rec.Counts[b] += c.hists[i].v[id][b].Load()
		}
		rec.Sum += c.hists[i].sum[id].Load()
	}
	return rec
}

// HistSnapshot returns every histogram with at least one observation, keyed
// by its stable name. Nil-safe (returns an empty map).
func (c *Counters) HistSnapshot() map[string]HistogramRecord {
	out := make(map[string]HistogramRecord)
	if c == nil {
		return out
	}
	for id := HistID(0); id < NumHists; id++ {
		if c.HistCount(id) > 0 {
			out[id.String()] = c.HistRecord(id)
		}
	}
	return out
}
