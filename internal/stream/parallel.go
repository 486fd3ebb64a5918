package stream

import (
	"hep/internal/graph"
	"hep/internal/part"
	"hep/internal/pstate"
	"hep/internal/shard"
)

// This file is HDRF's one placement path: a shard.BatchPlacer that runs the
// scorer (bestHDRF) batch by batch, driven by the batch engine at every
// worker count.
//
// With one worker the engine places batches in the caller's goroutine, the
// worker writes the result's own replica table and its load view is exact,
// so the output is the sequential HDRF pass, bit for bit, whatever the batch
// size. With W > 1 workers, replica state is shared exactly through the
// CAS-backed shard.AtomicTable (every worker sees every Add as soon as the
// CAS lands), so the dominant replication-factor signal is never stale.
// Load bounds are refreshed once per batch — a worker sees the global counts
// as of its last batch boundary plus its own in-batch increments — so the
// balance term and the capacity check can be off by at most the edges the
// other workers placed within one batch. Placements then depend on worker
// interleaving and are NOT run-to-run deterministic. Assignment *delivery*
// (sink order, res.M) is always in stream order (shard's ordered collector).

// replicaWriter is where a worker records replica bits: the result's own
// *pstate.Table with one worker, the shared *shard.AtomicTable with more.
type replicaWriter interface {
	Add(v graph.V, p int) bool
}

// hdrfWorker is one placement worker: reps is where candidate masks come
// from (the table being written for plain and informed streaming, a frozen
// prior table's reader for re-streaming), table is where replica bits are
// written. local is the worker's load view — a full pstate.Loads tracker
// reloaded from the folded global counts at each batch boundary and advanced
// per own assignment within the batch, so the in-batch loop has exactly the
// sequential semantics (rotating argmin included) against a view that lags
// other workers by at most one batch. partial makes the worker stream
// partial degrees into deg before scoring each edge (standalone HDRF with
// one worker).
type hdrfWorker struct {
	id       int
	reps     RepView
	table    replicaWriter
	loads    *shard.ShardedLoads
	deg      []int32
	partial  bool
	lambda   float64
	capacity int64
	local    *pstate.Loads
}

// PlaceBatch implements shard.BatchPlacer: reload the local load view from
// the folded global state, place every edge of the batch against it, fold
// the local deltas back.
//
//hep:noalloc
func (w *hdrfWorker) PlaceBatch(edges []graph.Edge, parts []int32) {
	w.loads.Snapshot(w.local.Counts())
	w.local.Recompute()
	counts := w.local.Counts()
	for i := range edges {
		u, v := edges[i].U, edges[i].V
		if w.partial {
			w.deg[u]++
			w.deg[v]++
		}
		maxLoad, minLoad := w.local.Max(), w.local.Min()
		am := -1
		if minLoad < w.capacity {
			am = w.local.ArgMin()
		}
		p := bestHDRF(w.reps, counts, maxLoad, minLoad, am, u, v, w.deg[u], w.deg[v], w.lambda, w.capacity)
		if p < 0 {
			// Every candidate at capacity in the worker's view: least
			// loaded, mirroring the sequential Loads.ArgMin fallback.
			p = w.local.ArgMin()
		}
		w.table.Add(u, p)
		w.table.Add(v, p)
		w.local.Inc(p)
		w.loads.Inc(w.id, p)
		parts[i] = int32(p)
	}
	w.loads.Fold(w.id)
}

// sizeBatches resolves the batch policy for one parallel run. An explicit
// opts.BatchEdges pins fixed-size batches at that literal value (and turns
// adaptive sizing off unless opts.AdaptiveBatch asks for it); BatchEdges = 0
// takes the shard.FixedBatch ceiling — batches scale with the stream so the
// total staleness window (W workers × one batch) stays around 2% of the
// edges — with capacity-aware adaptive sizing on by default varying batch
// sizes below that ceiling from the live load bounds. Count-less streams
// (totalM ≤ 0) keep the DefaultBatchEdges ceiling instead of collapsing to
// the floor, and their unbounded capacity pins the adaptive policy at the
// ceiling too.
func sizeBatches(opts *shard.Options, loads *shard.ShardedLoads, capacity, totalM int64, workers int) {
	adaptive := opts.AdaptiveBatch || opts.BatchEdges <= 0
	if opts.BatchEdges <= 0 {
		opts.BatchEdges = shard.FixedBatch(totalM, workers)
	}
	if adaptive && opts.Sizer == nil {
		opts.Sizer = shard.NewAdaptiveSizer(loads, capacity, workers, opts.BatchEdges)
	}
	opts.AdaptiveBatch = adaptive
}

// hdrfPass is one HDRF placement pass over a stream.
type hdrfPass struct {
	prior    *pstate.Table // frozen replica state to score against; nil = the table being written
	deg      []int32
	partial  bool // deg holds streamed partial degrees; set only with one worker
	lambda   float64
	capacity int64
	totalM   int64 // edges of the stream the batch sizes scale with (W > 1)
}

// run places every edge of src into res with opts.Resolve() workers through
// shard.Run and delivers assignments to res (edge count, sink, one quality
// sample per batch) in stream order.
func (h hdrfPass) run(src graph.EdgeStream, res *part.Result, opts shard.Options) error {
	workers := opts.Resolve()
	var sh *part.Shared
	var table replicaWriter
	var loads *shard.ShardedLoads
	var deliver func(edges []graph.Edge, parts []int32)
	if workers == 1 {
		// One worker writes the live table directly and scores exact loads
		// through a single lane. Fixed batches: the adaptive sizer only
		// bounds staleness, and one worker has none.
		table, loads = res.Reps, shard.NewShardedLoads(res.Loads, 1)
		if opts.BatchEdges <= 0 {
			opts.BatchEdges = shard.DefaultBatchEdges
		}
		deliver = func(edges []graph.Edge, parts []int32) {
			for i := range edges {
				res.M++
				if res.Sink != nil {
					res.Sink.Assign(edges[i].U, edges[i].V, int(parts[i]))
				}
			}
			res.SampleQuality(opts.Hub)
		}
	} else {
		sh = res.Shared(workers).SetObs(opts.Obs)
		defer sh.Finish()
		table, loads = sh.Table, sh.Loads
		// Size batches from totalM, never src.NumEdges(): a count-less
		// stream (NumEdges() == 0, count unknown) would collapse the batch
		// to the 256 floor and pay ~16× the per-batch synchronization.
		sizeBatches(&opts, sh.Loads, h.capacity, h.totalM, workers)
		deliver = func(edges []graph.Edge, parts []int32) {
			for i := range edges {
				sh.Deliver(edges[i].U, edges[i].V, int(parts[i]))
			}
			sh.SampleQuality(opts.Hub)
		}
	}
	ws := make([]shard.BatchPlacer, workers)
	for i := range ws {
		w := &hdrfWorker{
			id:       i,
			table:    table,
			loads:    loads,
			deg:      h.deg,
			partial:  h.partial,
			lambda:   h.lambda,
			capacity: h.capacity,
			local:    pstate.NewLoads(res.K),
		}
		switch {
		case h.prior != nil:
			w.reps = h.prior.Reader()
		case sh != nil:
			w.reps = sh.Table.View()
		default:
			w.reps = res.Reps
		}
		ws[i] = w
	}
	return shard.Run(src, ws, opts, deliver)
}

// RunHDRFParallel streams src into res with HDRF scoring against the exact
// degrees deg, placing edges with opts.Resolve() workers through the batch
// engine. res may carry warm informed state: it is HEP's informed streaming
// phase (paper §3.3), where the replica table NE++ produced informs every
// placement. totalM is the edge count of the complete graph, which defines
// the balance capacity ⌈α·|E|/k⌉ (and sizes batches). One worker gives the
// exact sequential pass.
func RunHDRFParallel(src graph.EdgeStream, res *part.Result, deg []int32, lambda, alpha float64, totalM int64, opts shard.Options) error {
	return PlaceHDRF(src, res, nil, deg, lambda, Capacity(alpha, totalM, res.K), totalM, opts)
}

// PlaceHDRF is RunHDRFParallel for the callers that need more control.
// Replica affinity is scored against prior, a frozen earlier result's table
// (re-streaming: later passes re-place every edge with full knowledge of
// the previous pass), or against the table being built when prior is nil.
// capacity is the explicit per-partition bound, and totalM the edge count
// batch sizes scale with — the out-of-core fallback places only a batch's
// leftovers under the whole graph's bound. Loads always come from res.
func PlaceHDRF(src graph.EdgeStream, res *part.Result, prior *pstate.Table, deg []int32, lambda float64, capacity, totalM int64, opts shard.Options) error {
	return hdrfPass{prior: prior, deg: deg, lambda: lambda, capacity: capacity, totalM: totalM}.run(src, res, opts)
}
