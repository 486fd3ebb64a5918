// Package stream implements the streaming edge partitioners the paper
// evaluates — HDRF, Greedy, DBH, Grid, ADWISE and Random — plus the
// informed stateful streaming pass HEP runs over E_h2h (paper §3.3).
//
// All partitioners here look at one edge (or a small window) at a time and
// keep only per-partition state: edge counts and the vertex-major replica
// table. The scoring loops read the endpoints' k-bit masks from
// pstate.Table a word at a time. The HDRF scorer then scores at most four
// finalists per edge: the least-loaded admissible partition of each replica
// class (hosting both endpoints, u only, v only) and the least-loaded
// partition overall. Within a class every partition has the same replica
// term, and the balance term never falls as the load falls, so a class's
// least-loaded partition is the best it has (ties included: it is also
// the lowest index at that load, the one a full ascending scan keeps). A
// partition hosting neither endpoint has no replica term, so none of them
// beats the least-loaded partition overall, the load tracker's argmin.
//
// Vertex ids must be below the stream's NumVertices. HDRF and DBH check
// them in their degree pass and return graph.ErrVertexRange; Greedy, Grid,
// ADWISE and Random index the replica table with them unchecked, so a
// larger id panics. The hep facade checks every id for those four first
// and returns graph.ErrVertexRange instead.
package stream

import (
	"math"
	"math/bits"

	"hep/internal/graph"
	"hep/internal/pstate"
)

// hdrfEpsilon avoids division by zero in the balance term (Petroni et al.).
const hdrfEpsilon = 1e-9

// DefaultLambda is the HDRF balance weight recommended by the authors and
// used in the paper's evaluation (Appendix A: λ = 1.1).
const DefaultLambda = 1.1

// Capacity returns the per-partition capacity bound ⌈α·m/k⌉ used by the
// balance constraint of §2. α below 1 (or NaN) is raised to 1, the smallest
// feasible bound, and α above k is capped at k: no partition can hold more
// than m edges, and the cap keeps a huge α from overflowing the conversion.
//
// m ≤ 0 means the edge count is unknown (graph.EdgeStream's NumEdges() == 0
// contract — e.g. a discovery-skipped out-of-core stream) and the capacity
// is unbounded: a literal ⌈α·0/k⌉ = 0 would make every partition "full", so
// the scorers would return -1 for every edge and HDRF/Greedy/ADWISE would
// silently degrade to balance-only ArgMin placement. With no hard bound the
// λ balance term still keeps loads even, which is the reference HDRF
// behavior (it has no capacity constraint at all).
func Capacity(alpha float64, m int64, k int) int64 {
	if m <= 0 {
		return math.MaxInt64
	}
	if !(alpha >= 1) {
		alpha = 1
	}
	return int64(math.Ceil(min(alpha, float64(k)) * float64(m) / float64(k)))
}

// bestHDRF returns the admissible partition with the highest HDRF score for
// (u,v), or -1 when every partition is at capacity:
//
//	θ(u) = d(u)/(d(u)+d(v))
//	g(v,p) = 1 + (1 − θ(v))   if v is replicated on p, else 0
//	C_REP  = g(u,p) + g(v,p)
//	C_BAL  = λ · (maxLoad − load_p) / (ε + maxLoad − minLoad)
//
// Replica affinity comes from reps (the table being written, or a frozen
// prior table when re-streaming); loads come from an explicit view: counts,
// their bounds, and argmin, the lowest-index partition at minLoad, or < 0
// when no admissible fallback partition exists. Ties break toward the lower load,
// then the lower index, matching a full ascending scan and keeping runs
// deterministic.
//
// One pass over the endpoints' mask words keeps the lowest-(load, index)
// admissible partition of each replica class, and only those and argmin
// are scored (see the package comment; λ ≥ 0 makes the balance term
// non-increasing in the load).
//
//hep:noalloc
func bestHDRF(reps *pstate.Table, counts []int64, maxLoad, minLoad int64, argmin int, u, v graph.V, du, dv int32, lambda float64, capacity int64) int {
	// fin[c] is the finalist of replica class c (1 = u only, 2 = v only,
	// 3 = both) and lo[c] its load; fin[0] is argmin, scored with no
	// replica term. Were argmin in class c, it would also be fin[c], scored
	// in full there. Starting lo at capacity admits only loads below it. The
	// ascending scan replaces a finalist only on a strictly lower load, so
	// the lowest index wins a tie; the update is a select, not a branch, so
	// it compiles to conditional moves.
	fin := [4]int{-1, -1, -1, -1}
	lo := [4]int64{capacity, capacity, capacity, capacity}
	for wi := range (len(counts) + 63) >> 6 {
		wu, wv := reps.Word(u, wi), reps.Word(v, wi)
		base := wi << 6
		for w := wu | wv; w != 0; w &= w - 1 {
			b := bits.TrailingZeros64(w)
			c := wu>>b&1 | wv>>b&1<<1
			l, f := counts[base+b], fin[c]
			if l < lo[c] {
				f = base + b
			}
			fin[c], lo[c] = f, min(l, lo[c])
		}
	}
	if argmin >= 0 && counts[argmin] < capacity {
		fin[0] = argmin
	}
	sum := float64(du) + float64(dv)
	gu := 1 + (1 - float64(du)/sum)
	gv := 1 + (1 - float64(dv)/sum)
	rep := [4]float64{0, gu, gv, gu + gv}
	denom := hdrfEpsilon + float64(maxLoad-minLoad)
	best, bestScore := -1, math.Inf(-1)
	for c, p := range fin {
		if p < 0 {
			continue
		}
		s := rep[c] + lambda*float64(maxLoad-counts[p])/denom
		if s > bestScore || (s == bestScore && best >= 0 &&
			(counts[p] < counts[best] || counts[p] == counts[best] && p < best)) {
			best, bestScore = p, s
		}
	}
	return best
}

// hash32 is a deterministic avalanche hash (Murmur3 finalizer) used by the
// hashing partitioners (DBH, Grid, Random).
func hash32(x uint32) uint32 {
	x ^= x >> 16
	x *= 0x85ebca6b
	x ^= x >> 13
	x *= 0xc2b2ae35
	x ^= x >> 16
	return x
}
