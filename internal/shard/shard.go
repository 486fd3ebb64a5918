// Package shard is the batch loop of the HDRF-family placement passes in
// internal/stream: standalone HDRF, re-streaming and HEP's informed h2h
// phase. Run cuts an edge stream into batches of DefaultBatchEdges, has one
// placer place each batch in the caller's goroutine and delivers it in
// stream order; the placer's first error stops the scan. Counters fold, and
// the batch latency is observed, once per batch. Lent slabs are Run's one input: batches are slices of them, and a
// source that does not lend is copied into one recycled slab at entry
// (Lend).
//
// Placement runs one worker at every worker count, as the paper's
// streaming phase does (§3.3): on a 2-core host two concurrent workers
// bought no wall time over one, at twice the CPU, and made placement
// depend on worker interleaving (README, "Placement runs one worker").
//
// The pre-passes (exact degree counts, HEP's CSR build) are sequential too.
// Options, FixedBatch and Degrees remain only because the benchmark's
// staged chains (bench/) still pass a worker count.
package shard

import (
	"hep/internal/graph"
	"hep/internal/obs"
)

// Options is the worker count and observability hub the benchmark's staged
// chains pass to the placement and pre-pass entry points.
type Options struct {
	// Workers is the caller's worker count. Nothing reads it: placement
	// and the pre-passes run one worker whatever it says.
	Workers int
	// Obs is the observability hub (nil = disabled). The batch loop folds
	// batch and edge totals and latency histograms into its counters, and
	// internal/stream pushes one RF/balance sample per batch into its
	// series ring.
	Obs *obs.Obs
}

// MinBatchEdges is the floor of FixedBatch.
const MinBatchEdges = 256

// FixedBatch is m/(50·W), about 50 batches per worker over the whole
// stream, clamped to [MinBatchEdges, DefaultBatchEdges]. A non-positive
// totalM (count-less stream) returns DefaultBatchEdges. Nothing here uses
// it; the benchmark sizes its balance slack for W > 1 jobs with it.
func FixedBatch(totalM int64, workers int) int {
	if workers < 1 {
		workers = 1
	}
	if totalM <= 0 {
		return DefaultBatchEdges
	}
	b := totalM / int64(50*workers)
	if b >= DefaultBatchEdges {
		return DefaultBatchEdges
	}
	if b < MinBatchEdges {
		return MinBatchEdges
	}
	return int(b)
}

// Degrees is graph.Degrees at every worker count; opts is unused. It is
// kept, with its signature, for the benchmark's staged chains (bench/).
func Degrees(src graph.EdgeStream, opts Options) ([]int32, int64, error) {
	return graph.Degrees(src)
}
