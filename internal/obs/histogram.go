package obs

import (
	"math/bits"
	"sync/atomic"
)

// HistID names one log-bucketed latency/size histogram. Like counters,
// histograms are observed at batch/region boundaries only — one Observe per
// batch, never per edge.
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

// hist is one histogram: per-bucket observation counts and the sum of the
// positive observations.
type hist struct {
	v   [HistBuckets]atomic.Int64
	sum atomic.Int64
}

// Observe adds v to histogram id. Nil-safe; negative values count in
// bucket 0 with no sum contribution.
//
//hep:noalloc
func (c *Counters) Observe(id HistID, v int64) {
	if c == nil {
		return
	}
	h := &c.hists[id]
	h.v[histBucket(v)].Add(1)
	if v > 0 {
		h.sum.Add(v)
	}
}

// HistogramRecord is one folded histogram as emitted by the trace report:
// per-bucket counts (HistBuckets log2 buckets) plus the sum of observations.
type HistogramRecord struct {
	Counts []int64 `json:"counts"`
	Sum    int64   `json:"sum"`
}

// HistCount returns the total number of observations in histogram id.
// Nil-safe (returns 0).
func (c *Counters) HistCount(id HistID) int64 {
	if c == nil {
		return 0
	}
	var n int64
	for b := range c.hists[id].v {
		n += c.hists[id].v[b].Load()
	}
	return n
}

// HistRecord returns histogram id as a HistogramRecord. Nil-safe (returns
// a zero-count record).
func (c *Counters) HistRecord(id HistID) HistogramRecord {
	rec := HistogramRecord{Counts: make([]int64, HistBuckets)}
	if c == nil {
		return rec
	}
	h := &c.hists[id]
	for b := range h.v {
		rec.Counts[b] = h.v[b].Load()
	}
	rec.Sum = h.sum.Load()
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
