package stream

import (
	"hep/internal/graph"
	"hep/internal/part"
)

// Grid is the constrained hashing partitioner of GraphBuilder (Jain et al.,
// GRADES 2013): partitions form an r×c grid (r·c = k); each vertex hashes
// to a cell, its candidate set is the cell's row and column, and an edge
// goes to the least-loaded partition in the intersection of its endpoints'
// candidate sets (which is never empty). Stateless apart from load counts.
type Grid struct {
	part.SinkHolder
}

// Name implements part.Algorithm.
func (g *Grid) Name() string { return "Grid" }

// gridShape factors k into r×c with r ≤ c and r maximal (for a perfect
// square this is √k×√k; for a prime it degrades to 1×k).
func gridShape(k int) (r, c int) {
	r = 1
	for d := 2; d*d <= k; d++ {
		if k%d == 0 {
			r = d
		}
	}
	return r, k / r
}

// Partition implements part.Algorithm.
func (g *Grid) Partition(src graph.EdgeStream, k int) (*part.Result, error) {
	rows, cols := gridShape(k)
	res := part.NewResult(src.NumVertices(), k)
	res.Sink = g.Sink
	cell := func(x graph.V) (int, int) {
		h := hash32(x)
		return int(h % uint32(rows)), int((h >> 8) % uint32(cols))
	}
	err := graph.EdgesInRange(src, func(u, v graph.V) bool {
		ru, cu := cell(u)
		rv, cv := cell(v)
		// Intersection of u's and v's row/column candidate sets: the two
		// "crossing" cells, plus the shared row/column if any.
		bestP := -1
		consider := func(r, c int) {
			p := r*cols + c
			if bestP < 0 || res.Counts[p] < res.Counts[bestP] {
				bestP = p
			}
		}
		consider(ru, cv)
		consider(rv, cu)
		if ru == rv {
			for c := 0; c < cols; c++ {
				consider(ru, c)
			}
		}
		if cu == cv {
			for r := 0; r < rows; r++ {
				consider(r, cu)
			}
		}
		res.Assign(u, v, bestP)
		return true
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
