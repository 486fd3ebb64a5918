// Package stream implements the streaming edge partitioners the paper
// evaluates — HDRF, Greedy, DBH, Grid, ADWISE and Random — plus the
// informed stateful streaming pass HEP runs over E_h2h (paper §3.3).
//
// All partitioners here look at one edge (or a small window) at a time and
// keep only per-partition state: edge counts and the vertex-major replica
// table. The scoring loops iterate only the *candidate* partitions — those
// already hosting one of the edge's endpoints, handed over as a k-bit mask
// by pstate.Table — plus the least-loaded partition as the balance-only
// fallback. A partition hosting neither endpoint scores rep = 0, and among
// those the balance term is maximized exactly at the minimum load, so this
// candidate set provably contains the full-scan argmax (ties included: the
// fallback anchor is the lowest-index minimum-load partition, which is the
// one a full ascending scan would keep).
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
// balance constraint of §2. α below 1 is raised to 1, the smallest feasible
// bound.
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
	if alpha < 1 {
		alpha = 1
	}
	return int64(math.Ceil(alpha * float64(m) / float64(k)))
}

// RepView is the read surface of a replica table the scorer needs: the
// candidate mask of an edge (partitions hosting either endpoint) and
// per-vertex mask words. *pstate.Table (the live table one worker scores
// and writes), pstate.Reader (a frozen prior state, one per re-streaming
// worker) and shard.View (one worker's handle on the concurrent
// AtomicTable) implement it.
type RepView interface {
	Candidates(u, v graph.V) []uint64
	Word(v graph.V, wi int) uint64
}

// bestHDRF returns the admissible partition with the highest HDRF score for
// (u,v), or -1 when every partition is at capacity:
//
//	θ(u) = d(u)/(d(u)+d(v))
//	g(v,p) = 1 + (1 − θ(v))   if v is replicated on p, else 0
//	C_REP  = g(u,p) + g(v,p)
//	C_BAL  = λ · (maxLoad − load_p) / (ε + maxLoad − minLoad)
//
// Replica affinity comes from reps; loads come from an explicit view (a
// worker's load snapshot plus its own in-batch increments) whose argmin is
// < 0 when no admissible fallback partition exists. Only candidate
// partitions are scored (see the package comment). Ties break toward the
// lower load, then the lower index, matching a full ascending scan and
// keeping runs deterministic.
//
//hep:noalloc
func bestHDRF(reps RepView, counts []int64, maxLoad, minLoad int64, argmin int, u, v graph.V, du, dv int32, lambda float64, capacity int64) int {
	cand := reps.Candidates(u, v)
	if argmin >= 0 {
		pstate.SetBit(cand, argmin)
	}
	sum := float64(du) + float64(dv)
	gu := 1 + (1 - float64(du)/sum)
	gv := 1 + (1 - float64(dv)/sum)
	denom := hdrfEpsilon + float64(maxLoad-minLoad)
	best, bestScore := -1, math.Inf(-1)
	for wi, w := range cand {
		if w == 0 {
			continue
		}
		wu, wv := reps.Word(u, wi), reps.Word(v, wi)
		base := wi << 6
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &= w - 1
			p := base + b
			if counts[p] >= capacity {
				continue
			}
			var rep float64
			if wu>>b&1 != 0 {
				rep += gu
			}
			if wv>>b&1 != 0 {
				rep += gv
			}
			s := rep + lambda*float64(maxLoad-counts[p])/denom
			if s > bestScore || (s == bestScore && best >= 0 && counts[p] < counts[best]) {
				best, bestScore = p, s
			}
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
