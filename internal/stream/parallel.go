package stream

import (
	"math"
	"sync/atomic"

	"hep/internal/graph"
	"hep/internal/obs"
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

// hdrfWorker is one placement worker: reps is where the scorer reads
// replica masks (the table being written for plain and informed streaming,
// a frozen prior table for re-streaming), table is where replica bits are
// written. local is the worker's load view — a full pstate.Loads tracker
// reloaded from the folded global counts at each batch boundary and advanced
// per own assignment within the batch, so the in-batch loop has exactly the
// sequential semantics (rotating argmin included) against a view that lags
// other workers by at most one batch. partial makes the worker stream
// partial degrees into deg before scoring each edge (standalone HDRF with
// one worker); it is the one worker whose ids and degree counts no earlier
// pass has checked, so it records an out-of-range id or a degree past the
// int32 range in fault.
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
	fault    *passFault
}

// passFault is a pass's record of the error that stopped its scan, and the
// flag that stops the engine's scan (shard.AbortStream) and delivery.
type passFault struct {
	stop atomic.Bool
	err  error
}

func (f *passFault) set(err error) {
	f.err = err
	f.stop.Store(true)
}

// PlaceBatch implements shard.BatchPlacer: reload the local load view from
// the folded global state, place every edge of the batch against it, fold
// the local deltas back.
//
//hep:noalloc
func (w *hdrfWorker) PlaceBatch(edges []graph.Edge, parts []int32) {
	if w.fault.stop.Load() {
		return
	}
	w.loads.Snapshot(w.local.Counts())
	w.local.Recompute()
	counts := w.local.Counts()
	deg := w.deg
	for i := range edges {
		u, v := edges[i].U, edges[i].V
		if w.partial {
			// The check stands in for the bounds checks of the two
			// increments, which the compiler then drops.
			if int(u) >= len(deg) || int(v) >= len(deg) {
				w.fault.set(graph.VertexRangeError(u, v, len(deg)))
				return
			}
			// A count at the int32 maximum cannot grow; a self-loop
			// adds 2 to one count.
			if deg[u] == math.MaxInt32 || deg[v] == math.MaxInt32 || (u == v && deg[u] == math.MaxInt32-1) {
				w.fault.set(graph.DegreeOverflowError(deg, u, v))
				return
			}
			deg[u]++
			deg[v]++
		}
		maxLoad, minLoad := w.local.Max(), w.local.Min()
		am := -1
		if minLoad < w.capacity {
			am = w.local.ArgMin()
		}
		p := bestHDRF(w.reps, counts, maxLoad, minLoad, am, u, v, deg[u], deg[v], w.lambda, w.capacity)
		if p < 0 {
			// Every partition at capacity in the worker's view: least
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
// opts.BatchEdges pins fixed-size batches at that literal value; BatchEdges
// = 0 takes the shard.FixedBatch ceiling — batches scale with the stream so
// the total staleness window (W workers × one batch) stays around 2% of the
// edges — with capacity-aware adaptive sizing varying batch sizes below
// that ceiling from the live load bounds. Count-less streams (totalM ≤ 0)
// keep the DefaultBatchEdges ceiling instead of collapsing to the floor,
// and their unbounded capacity pins the adaptive policy at the ceiling too.
func sizeBatches(opts *shard.Options, loads *shard.ShardedLoads, capacity, totalM int64, workers int) {
	if opts.BatchEdges > 0 {
		return
	}
	opts.BatchEdges = shard.FixedBatch(totalM, workers)
	opts.Sizer = shard.NewAdaptiveSizer(loads, capacity, workers, opts.BatchEdges)
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
// sample per batch) in stream order. It is the one place a placement pass
// is set up: it picks the batch policy from the worker count (fixed
// DefaultBatchEdges batches for one worker, the adaptive policy of
// sizeBatches for more, unless opts.BatchEdges pins a size) and, for more
// than one worker, moves res's state into its concurrent form for the run.
// A partial-degree pass stops at the first vertex id outside res's n or
// degree past the int32 range, delivers nothing from that batch on, and
// returns graph.ErrVertexRange or graph.ErrDegreeOverflow.
func (h hdrfPass) run(src graph.EdgeStream, res *part.Result, opts shard.Options) error {
	workers := opts.Resolve()
	var fault passFault
	if h.partial {
		src = shard.AbortStream{EdgeStream: src, Stop: &fault.stop}
	}
	var table replicaWriter
	var reps RepView
	var loads *shard.ShardedLoads
	var shared *shard.AtomicTable
	if workers == 1 {
		// One worker writes the live table directly and scores exact loads
		// through a single lane. Fixed batches: the adaptive sizer only
		// bounds staleness, and one worker has none.
		table, reps, loads = res.Reps, res.Reps, shard.NewShardedLoads(res.Loads, 1)
		if opts.BatchEdges <= 0 {
			opts.BatchEdges = shard.DefaultBatchEdges
		}
	} else {
		// The replica table moves into CAS-backed shared form (no mask word
		// is copied) and the load tracker gets one delta lane per worker.
		// Workers apply replica bits and loads themselves; delivery records
		// the edge count and the sink, which need stream order. Once every
		// worker has stopped, the table freezes back into res.
		shared = shard.FromTable(res.Reps)
		defer func() {
			opts.Obs.Counters().Add(0, obs.CtrCASRetries, shared.Retries())
			res.Reps = shared.Freeze()
		}()
		table, reps = shared, shared
		loads = shard.NewShardedLoads(res.Loads, workers)
		loads.SetObs(opts.Obs.Counters())
		// Size batches from totalM, never src.NumEdges(): a count-less
		// stream (NumEdges() == 0, count unknown) would collapse the batch
		// to the 256 floor and pay ~16× the per-batch synchronization.
		sizeBatches(&opts, loads, h.capacity, h.totalM, workers)
	}
	deliver := func(edges []graph.Edge, parts []int32) {
		if fault.stop.Load() {
			return
		}
		for i := range edges {
			res.M++
			if res.Sink != nil {
				res.Sink.Assign(edges[i].U, edges[i].V, int(parts[i]))
			}
		}
		if shared == nil {
			res.SampleQuality(opts.Obs)
		} else {
			sampleShared(opts.Obs, res, shared, loads)
		}
	}
	if h.prior != nil {
		reps = h.prior
	}
	ws := make([]shard.BatchPlacer, workers)
	for i := range ws {
		ws[i] = &hdrfWorker{
			id:       i,
			reps:     reps,
			table:    table,
			loads:    loads,
			deg:      h.deg,
			partial:  h.partial,
			lambda:   h.lambda,
			capacity: h.capacity,
			local:    pstate.NewLoads(res.K),
			fault:    &fault,
		}
	}
	if err := shard.Run(src, ws, opts, deliver); err != nil {
		return err
	}
	return fault.err
}

// sampleShared pushes one running-quality sample from the live concurrent
// state — atomic per-partition vertex counts, the covered-vertex counter and
// the sharded load bounds — into the hub's series ring. The SampleTick gate
// skips the O(k) gather entirely when sampling is off.
func sampleShared(o *obs.Obs, res *part.Result, t *shard.AtomicTable, loads *shard.ShardedLoads) {
	if !o.SampleTick() {
		return
	}
	var replicas int64
	for p := 0; p < res.K; p++ {
		replicas += t.VertexCount(p)
	}
	max, min := loads.Bounds()
	o.RecordSample(res.M, replicas, t.Covered(), max, min, res.K)
}

// RunHDRFParallel streams src into res with HDRF scoring against the exact
// degrees deg, placing edges with opts.Resolve() workers through the batch
// engine. res may carry warm informed state: it is HEP's informed streaming
// phase (paper §3.3), where the replica table NE++ produced informs every
// placement. totalM is the edge count of the complete graph, which defines
// the balance capacity ⌈α·|E|/k⌉ (and sizes batches). One worker gives the
// exact sequential pass.
func RunHDRFParallel(src graph.EdgeStream, res *part.Result, deg []int32, lambda, alpha float64, totalM int64, opts shard.Options) error {
	return PlaceHDRF(src, res, nil, deg, lambda, alpha, totalM, opts)
}

// PlaceHDRF is RunHDRFParallel scoring replica affinity against prior, a
// frozen earlier result's table (re-streaming: later passes re-place every
// edge with full knowledge of the previous pass), or against the table
// being built when prior is nil. Loads always come from res.
func PlaceHDRF(src graph.EdgeStream, res *part.Result, prior *pstate.Table, deg []int32, lambda, alpha float64, totalM int64, opts shard.Options) error {
	return hdrfPass{prior: prior, deg: deg, lambda: lambda, capacity: Capacity(alpha, totalM, res.K), totalM: totalM}.run(src, res, opts)
}
