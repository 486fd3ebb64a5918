package main

import (
	"fmt"
	"math"
)

// perLayer lists the traced pass's metrics in BENCHMARK.json order. A layer
// the workload's job does not run reports 0.
var perLayer = []metricDef{
	{"ooc.ingest.ns_per_edge", "ns/edge"},
	{"ooc.ingest.alloc_bytes_per_edge", "B/edge"},
	{"memmodel.fit_s", "s"},
	{"memmodel.tau", "ratio"},
	{"memmodel.predicted_mib", "MiB"},
	{"ooc.degrees.w1_ns_per_edge", "ns/edge"},
	{"ooc.degrees.w2_ns_per_edge", "ns/edge"},
	{"shard.degrees.w1_ns_per_edge", "ns/edge"},
	{"shard.degrees.w2_ns_per_edge", "ns/edge"},
	{"core.build.w1_ns_per_edge", "ns/edge"},
	{"core.build.w2_ns_per_edge", "ns/edge"},
	{"core.build.alloc_bytes_per_edge", "B/edge"},
	{"core.build.csr_mib", "MiB"},
	{"core.build.h2h_edges", "count"},
	{"core.build.spill_bytes", "B"},
	{"core.nepp.ns_per_edge", "ns/edge"},
	{"core.nepp.alloc_bytes_per_edge", "B/edge"},
	{"core.nepp.seeds", "count"},
	{"core.nepp.cleanup_ratio", "ratio"},
	{"stream.hdrf.w1_ns_per_edge", "ns/edge"},
	{"stream.hdrf.w2_ns_per_edge", "ns/edge"},
	{"stream.hdrf.alloc_bytes_per_edge", "B/edge"},
	{"shard.engine.batches", "count"},
	{"shard.engine.cas_retries", "count"},
	{"shard.engine.reorder_stalls", "count"},
	{"shard.engine.reorder_stall_ms", "ms"},
	{"shard.engine.batch_resizes", "count"},
	{"shard.engine.bytes_copied_dispatch", "B"},
	{"shard.engine.chunk_copy_fallbacks", "count"},
	{"ooc.buffered.w1_ns_per_edge", "ns/edge"},
	{"ooc.buffered.w2_ns_per_edge", "ns/edge"},
	{"ooc.buffered.expansion_share", "ratio"},
	{"ooc.buffered.regions", "count"},
	{"ooc.buffered.parallel_batches", "count"},
	{"ooc.buffered.warm_scan_probes", "count"},
	{"ooc.buffered.warm_rescans", "count"},
	{"ooc.buffered.peak_buffer_mib", "MiB"},
	{"refine.w1_s", "s"},
	{"refine.w2_s", "s"},
	{"refine.rounds", "count"},
	{"refine.moves_applied", "count"},
	{"refine.gain_recomputes", "count"},
	{"refine.move_yield", "ratio"},
	{"refine.reverted_rounds", "count"},
	{"refine.alloc_mib", "MiB"},
	{"refine.heap_after_mib", "MiB"},
	{"metrics.summarize_ms", "ms"},
	{"obs.overhead_pct", "%"},
	{"ledger.w2_gap_pct", "%"},
}

// layerValues derives the per-layer metrics from the staged pass's rows,
// the traced facade rep and the untraced reps run beside them. Where a
// stage ran in both chains, the W=2 chain's row (recorded last) supplies
// its stats and single-worker numbers.
func layerValues(rows []*ledgerRow, traced jobResult, reps []sample) map[string]float64 {
	v := make(map[string]float64, len(perLayer))
	var chain2Ns int64
	for _, r := range rows {
		for k, c := range r.Stats {
			v[r.Stage+"."+k] = c
		}
		if r.Chain == 2 {
			chain2Ns += r.Ns
		}
		switch r.Stage {
		case "ooc.ingest", "core.nepp":
			v[r.Stage+".ns_per_edge"] = r.NsPerEdge
			v[r.Stage+".alloc_bytes_per_edge"] = r.AllocBytesPerEdge
		case "memmodel":
			v["memmodel.fit_s"] = float64(r.Ns) / 1e9
		case "core.build", "stream.hdrf":
			v[fmt.Sprintf("%s.w%d_ns_per_edge", r.Stage, r.Workers)] = r.NsPerEdge
			v[r.Stage+".alloc_bytes_per_edge"] = r.AllocBytesPerEdge
		case "ooc.degrees", "shard.degrees", "ooc.buffered":
			v[fmt.Sprintf("%s.w%d_ns_per_edge", r.Stage, r.Workers)] = r.NsPerEdge
		case "refine":
			v[fmt.Sprintf("refine.w%d_s", r.Workers)] = float64(r.Ns) / 1e9
			v["refine.alloc_mib"] = mib(r.AllocBytes)
			v["refine.heap_after_mib"] = mib(r.HeapAfterBytes)
		case "metrics.summarize":
			v["metrics.summarize_ms"] = float64(r.Ns) / 1e6
		}
	}
	for k, c := range traced.Engine {
		v["shard.engine."+k] = c
	}
	walls := make([]float64, len(reps))
	partition := make([]float64, len(reps))
	for i, s := range reps {
		walls[i] = float64(s.job.WallNs)
		partition[i] = float64(s.job.WallNs - s.job.SetupNs)
	}
	if wall := summarize(walls).median; wall > 0 {
		v["obs.overhead_pct"] = 100 * (float64(traced.WallNs) - wall) / wall
	}
	if p := summarize(partition).median; p > 0 {
		v["ledger.w2_gap_pct"] = 100 * math.Abs(float64(chain2Ns)-p) / p
	}
	return v
}
