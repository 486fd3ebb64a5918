package stream

import (
	"math"

	"hep/internal/graph"
	"hep/internal/obs"
	"hep/internal/part"
	"hep/internal/pstate"
	"hep/internal/shard"
)

// This file is HDRF's one placement path: a shard.BatchPlacer that runs the
// scorer (bestHDRF) batch by batch through shard.Run, writing the result's
// replica table and load tracker directly. Batches change nothing the
// scorer sees, so the output is the per-edge sequential HDRF pass, bit for
// bit, and deterministic.

// hdrfPlacer places the batches of one pass into res. reps is where the
// scorer reads replica masks: res.Reps for plain and informed streaming, a
// frozen prior table for re-streaming. partial makes the placer stream
// partial degrees into deg before scoring each edge (standalone HDRF); it
// is the one pass whose ids and degree counts no earlier pass has checked,
// so PlaceBatch returns the error for an out-of-range id or a degree past
// the int32 range, which ends the pass (shard.Run).
type hdrfPlacer struct {
	res      *part.Result
	reps     *pstate.Table
	deg      []int32
	partial  bool
	lambda   float64
	capacity int64
}

// PlaceBatch implements shard.BatchPlacer.
//
//hep:noalloc
func (w *hdrfPlacer) PlaceBatch(edges []graph.Edge, parts []int32) error {
	loads, table := w.res.Loads, w.res.Reps
	counts := loads.Counts()
	deg := w.deg
	for i := range edges {
		u, v := edges[i].U, edges[i].V
		if w.partial {
			// The check stands in for the bounds checks of the two
			// increments, which the compiler then drops.
			if uint(u) >= uint(len(deg)) || uint(v) >= uint(len(deg)) {
				return graph.VertexRangeError(u, v, len(deg))
			}
			// A count at the int32 maximum cannot grow; a self-loop
			// adds 2 to one count.
			if deg[u] == math.MaxInt32 || deg[v] == math.MaxInt32 || (u == v && deg[u] == math.MaxInt32-1) {
				return graph.DegreeOverflowError(deg, u, v)
			}
			deg[u]++
			deg[v]++
		}
		maxLoad, minLoad := loads.Max(), loads.Min()
		am := -1
		if minLoad < w.capacity {
			am = loads.ArgMin()
		}
		p := bestHDRF(w.reps, counts, maxLoad, minLoad, am, u, v, deg[u], deg[v], w.lambda, w.capacity)
		if p < 0 {
			// Every partition at capacity: least loaded.
			p = loads.ArgMin()
		}
		table.Add(u, p)
		table.Add(v, p)
		loads.Inc(p)
		parts[i] = int32(p)
	}
	return nil
}

// hdrfPass is one HDRF placement pass over a stream.
type hdrfPass struct {
	prior    *pstate.Table // frozen replica state to score against; nil = the table being written
	deg      []int32
	partial  bool // deg holds streamed partial degrees
	lambda   float64
	capacity int64
}

// run places every edge of src into res through shard.Run and delivers
// assignments to res (edge count, sink, one quality sample per batch) in
// stream order. A partial-degree pass stops at the first vertex id outside
// res's n or degree past the int32 range, delivers nothing from that batch
// on, and returns graph.ErrVertexRange or graph.ErrDegreeOverflow.
func (h hdrfPass) run(src graph.EdgeStream, res *part.Result, o *obs.Obs) error {
	w := &hdrfPlacer{
		res:      res,
		reps:     res.Reps,
		deg:      h.deg,
		partial:  h.partial,
		lambda:   h.lambda,
		capacity: h.capacity,
	}
	if h.prior != nil {
		w.reps = h.prior
	}
	deliver := func(edges []graph.Edge, parts []int32) {
		for i := range edges {
			res.M++
			if res.Sink != nil {
				res.Sink.Assign(edges[i].U, edges[i].V, int(parts[i]))
			}
		}
		res.SampleQuality(o)
	}
	return shard.Run(src, w, o.Counters(), deliver)
}

// RunHDRFParallel is PlaceHDRF with no prior table and the hub in
// opts.Obs; opts.Workers is ignored. It is kept, with its signature, for
// the benchmark's staged chains (bench/).
func RunHDRFParallel(src graph.EdgeStream, res *part.Result, deg []int32, lambda, alpha float64, totalM int64, opts shard.Options) error {
	return PlaceHDRF(src, res, nil, deg, lambda, alpha, totalM, opts.Obs)
}

// PlaceHDRF streams src into res with HDRF scoring against the exact
// degrees deg. Replica affinity is scored against prior, a frozen earlier
// result's table (re-streaming: later passes re-place every edge with full
// knowledge of the previous pass), or against the table being built when
// prior is nil; loads always come from res. res may carry warm informed
// state: it is HEP's informed streaming phase (paper §3.3), where the
// replica table NE++ produced informs every placement. totalM is the edge
// count of the complete graph, which defines the balance capacity
// ⌈α·|E|/k⌉.
func PlaceHDRF(src graph.EdgeStream, res *part.Result, prior *pstate.Table, deg []int32, lambda, alpha float64, totalM int64, o *obs.Obs) error {
	return hdrfPass{prior: prior, deg: deg, lambda: lambda, capacity: Capacity(alpha, totalM, res.K)}.run(src, res, o)
}
