package stream

import (
	"math/bits"

	"hep/internal/graph"
	"hep/internal/part"
)

// Greedy is the PowerGraph greedy vertex-cut heuristic (Gonzalez et al.,
// OSDI 2012): prefer a partition already holding both endpoints, then one
// holding either, then the least loaded overall — always breaking ties
// toward the lower load.
type Greedy struct {
	part.SinkHolder

	// Alpha is the balance bound α ≥ 1 (default 1.05).
	Alpha float64
}

// Name implements part.Algorithm.
func (g *Greedy) Name() string { return "Greedy" }

// Partition implements part.Algorithm.
func (g *Greedy) Partition(src graph.EdgeStream, k int) (*part.Result, error) {
	alpha := g.Alpha
	if alpha == 0 {
		alpha = 1.05
	}
	res := part.NewResult(src.NumVertices(), k)
	res.Sink = g.Sink
	capacity := Capacity(alpha, src.NumEdges(), k)
	err := graph.EdgesInRange(src, func(u, v graph.V) bool {
		res.Assign(u, v, greedyChoice(res, u, v, capacity))
		return true
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// greedyChoice iterates only the partitions hosting u or v, read from their
// mask words: the both/either preferences can only come from there, and
// the fallback — least loaded overall, even when every partition is at
// capacity — is the load tracker's argmin.
func greedyChoice(res *part.Result, u, v graph.V, capacity int64) int {
	bothBest, eitherBest := -1, -1
	counts := res.Counts
	for wi := range res.Reps.Words() {
		wu, wv := res.Reps.Word(u, wi), res.Reps.Word(v, wi)
		base := wi << 6
		for w := wu | wv; w != 0; w &= w - 1 {
			b := bits.TrailingZeros64(w)
			p := base + b
			load := counts[p]
			if load >= capacity {
				continue
			}
			if wu>>b&1 != 0 && wv>>b&1 != 0 {
				if bothBest < 0 || load < counts[bothBest] {
					bothBest = p
				}
			}
			if eitherBest < 0 || load < counts[eitherBest] {
				eitherBest = p
			}
		}
	}
	switch {
	case bothBest >= 0:
		return bothBest
	case eitherBest >= 0:
		return eitherBest
	default:
		// Least loaded; if even that is at capacity every partition is
		// full, and the least loaded is still the right fallback.
		return res.Loads.ArgMin()
	}
}
