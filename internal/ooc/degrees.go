package ooc

import (
	"math"

	"hep/internal/graph"
	"hep/internal/shard"
)

// ErrDegreeOverflow is graph.ErrDegreeOverflow, the one sentinel of every
// exact degree count: DegreePass returns it when a vertex's degree would
// exceed the int32 range.
var ErrDegreeOverflow = graph.ErrDegreeOverflow

// maxDegree is the largest representable degree; a variable so tests can
// lower it and exercise the overflow guard without streaming 2^31 edges.
var maxDegree int32 = math.MaxInt32

// DegreePass computes exact vertex degrees in one pass over src, holding
// only the degree array plus whatever src keeps in flight (one chunk for a
// Stream). The degree array grows on demand, so the pass also discovers the
// vertex count: len(deg) is max id + 1 (or src.NumVertices() if larger).
// Each undirected edge contributes 1 to both endpoints; self-loops
// contribute 2. No partitioner calls it any more: Buffered needs only |V|
// and |E|, which discover counts. It is reached through DegreePassParallel,
// which the benchmark's staged Buffered chain times.
func DegreePass(src graph.EdgeStream) (deg []int32, m int64, err error) {
	deg = make([]int32, src.NumVertices())
	var loopErr error
	err = src.Edges(func(u, v graph.V) bool {
		hi := u
		if v > hi {
			hi = v
		}
		if int64(hi) >= int64(len(deg)) {
			deg = append(deg, make([]int32, int(hi)+1-len(deg))...)
		}
		if deg[u] >= maxDegree || deg[v] >= maxDegree ||
			(u == v && deg[u] >= maxDegree-1) {
			// v first: when both counts sit at the bound, the pass names v.
			loopErr = graph.DegreeOverflowError(deg, v, u)
			return false
		}
		deg[u]++
		deg[v]++
		m++
		return true
	})
	if err != nil {
		return nil, 0, err
	}
	if loopErr != nil {
		return nil, 0, loopErr
	}
	return deg, m, nil
}

// DegreePassParallel is DegreePass at every worker count; opts is unused.
// It is kept, with its signature, for the benchmark's staged chains
// (bench/), where it stands in for Buffered's discovery scan.
func DegreePassParallel(src graph.EdgeStream, opts shard.Options) (deg []int32, m int64, err error) {
	return DegreePass(src)
}
