package parttest

// The pre-refactor partition-major replica representation and its HDRF
// placement rule, kept alive VERBATIM as the single reference baseline: the
// equivalence tests in this package pin the vertex-major hot paths to it
// bit-for-bit, and bench_test.go's BenchmarkHDRFPlacement measures the new
// paths against it. Do not "optimize" this code — its O(k) scans are the
// point.

import (
	"math"

	"hep/internal/bitset"
	"hep/internal/graph"
)

// RefState is the old partition-major representation: per-partition edge
// counts and replica bitsets (k bitsets of n bits).
type RefState struct {
	K      int
	Counts []int64
	Reps   []*bitset.Set
}

// NewRefState returns an empty partition-major state.
func NewRefState(n, k int) *RefState {
	r := &RefState{K: k, Counts: make([]int64, k), Reps: make([]*bitset.Set, k)}
	for i := range r.Reps {
		r.Reps[i] = bitset.New(n)
	}
	return r
}

// Assign records edge (u,v) in partition p.
func (r *RefState) Assign(u, v graph.V, p int) {
	r.Counts[p]++
	r.Reps[p].Set(u)
	r.Reps[p].Set(v)
}

// LoadBounds is the per-edge O(k) rescan the incremental load tracker
// replaced.
func (r *RefState) LoadBounds() (max, min int64) {
	max, min = r.Counts[0], r.Counts[0]
	for _, c := range r.Counts[1:] {
		if c > max {
			max = c
		}
		if c < min {
			min = c
		}
	}
	return max, min
}

// RefArgmin is the old ArgminLoad: lowest-index least-loaded partition.
func RefArgmin(counts []int64) int {
	best := 0
	for p, c := range counts {
		if c < counts[best] {
			best = p
		}
	}
	return best
}

const refEpsilon = 1e-9

// RefHDRFScore is the old partition-major hdrfScore: loads from r, replica
// affinity from reps (identical to r except in the frozen-state restream
// case).
func RefHDRFScore(r, reps *RefState, u, v graph.V, du, dv int32, p int, lambda float64, maxLoad, minLoad int64) float64 {
	sum := float64(du) + float64(dv)
	var rep float64
	if reps.Reps[p].Has(u) {
		rep += 1 + (1 - float64(du)/sum)
	}
	if reps.Reps[p].Has(v) {
		rep += 1 + (1 - float64(dv)/sum)
	}
	bal := lambda * float64(maxLoad-r.Counts[p]) / (refEpsilon + float64(maxLoad-minLoad))
	return rep + bal
}

// RefHDRFArgmax is the old full-scan placement rule: score every admissible
// partition, break ties toward lower load then lower index, -1 when every
// partition is at capacity.
func RefHDRFArgmax(r, reps *RefState, u, v graph.V, du, dv int32, lambda float64, capacity int64) int {
	maxLoad, minLoad := r.LoadBounds()
	best, bestScore := -1, math.Inf(-1)
	for p := 0; p < r.K; p++ {
		if r.Counts[p] >= capacity {
			continue
		}
		s := RefHDRFScore(r, reps, u, v, du, dv, p, lambda, maxLoad, minLoad)
		if s > bestScore || (s == bestScore && best >= 0 && r.Counts[p] < r.Counts[best]) {
			best, bestScore = p, s
		}
	}
	return best
}

// RefCapFor is the shared capacity bound ⌈α·m/k⌉.
func RefCapFor(alpha float64, m int64, k int) int64 {
	if alpha < 1 {
		alpha = 1
	}
	return int64(math.Ceil(alpha * float64(m) / float64(k)))
}
