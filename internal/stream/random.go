package stream

import (
	"math/rand"

	"hep/internal/graph"
	"hep/internal/part"
)

// Random assigns every edge to a uniformly random partition, respecting the
// balance capacity. It is the streaming half of the simple hybrid baseline
// of paper §5.4 and the weakest quality baseline.
type Random struct {
	part.SinkHolder

	// Seed makes runs deterministic.
	Seed int64
	// Alpha is the balance bound α ≥ 1 (default 1.0: perfectly balanced).
	Alpha float64
}

// Name implements part.Algorithm.
func (r *Random) Name() string { return "Random" }

// Partition implements part.Algorithm.
func (r *Random) Partition(src graph.EdgeStream, k int) (*part.Result, error) {
	res := part.NewResult(src.NumVertices(), k)
	res.Sink = r.Sink
	if err := RunRandom(src, res, r.Seed, r.Alpha, src.NumEdges()); err != nil {
		return nil, err
	}
	return res, nil
}

// RunRandom streams src into an existing result with capacity α·totalM/k,
// for composing hybrid partitioners.
func RunRandom(src graph.EdgeStream, res *part.Result, seed int64, alpha float64, totalM int64) error {
	capacity := Capacity(maxf(alpha, 1), totalM, res.K)
	rng := rand.New(rand.NewSource(seed))
	return graph.EdgesInRange(src, func(u, v graph.V) bool {
		p := rng.Intn(res.K)
		for tries := 0; res.Counts[p] >= capacity && tries < res.K; tries++ {
			p = (p + 1) % res.K
		}
		res.Assign(u, v, p)
		return true
	})
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
