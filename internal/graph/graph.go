// Package graph defines the edge-list and CSR graph representations used by
// every partitioner in this repository.
//
// Vertices are dense uint32 ids (the paper's evaluation uses binary edge
// lists with 32-bit vertex ids, Table 3). Graphs are undirected and simple;
// an edge (u,v) is stored once in an edge list, but the CSR representation
// stores it in both directions (out-entry at u, in-entry at v) unless one of
// the endpoints is pruned as high-degree (paper §3.2.1).
package graph

import (
	"cmp"
	"errors"
	"fmt"
	"math"
)

// V is a vertex identifier.
type V = uint32

// Edge is an undirected edge in its original orientation (U is the left-hand
// side vertex of the input edge list, which matters for NE++'s
// last-partition pass, paper §3.2.3).
type Edge struct {
	U, V V
}

// Canonical returns the edge with endpoints ordered (min,max), used by tests
// to compare edge multisets irrespective of orientation.
func (e Edge) Canonical() Edge {
	if e.U > e.V {
		return Edge{e.V, e.U}
	}
	return e
}

// EdgeStream is a (re-iterable) source of edges. Implementations include
// in-memory edge lists (MemGraph), binary edge-list files (ooc.Stream,
// ooc.MmapStream) and the H2H spill stores. Edges must be yielded in a
// deterministic order and the stream must be restartable: every call to
// Edges iterates the full stream from the beginning. The placement batch
// loop (shard.Run) consumes lent slabs only (ChunkStream); a stream that
// does not lend is copied into a slab at its entry (shard.Lend).
type EdgeStream interface {
	// NumVertices returns |V|; vertex ids are in [0, NumVertices).
	NumVertices() int
	// NumEdges returns |E|, or 0 when the edge count is unknown up front
	// (e.g. a stream opened without a discovery scan). Consumers deriving
	// capacities, quotas or batch sizes from it must treat 0 as "count
	// unknown", never as "empty": trusted totals travel as explicit
	// parameters (totalM) or come from a counting pass.
	NumEdges() int64
	// Edges calls yield for every edge until the stream ends or yield
	// returns false.
	Edges(yield func(u, v V) bool) error
}

// ChunkStream is an EdgeStream that can additionally *lend* its edges as
// decoded contiguous slabs, so a consumer (the placement batch loop,
// Buffered's buffer fill) can slice batches out of the producer's own
// buffers instead of re-copying every edge.
//
// Chunks calls yield with consecutive slabs covering exactly the edges
// Edges would yield, in the same order. The slab is lent: the consumer may
// retain it (and subslices of it) after yield returns, and must call
// release exactly once when the last reference is dropped — that is what
// returns the slab to the producer's buffer pool. The consumer must treat
// the slab as read-only and must not retain it past release. Stopping
// early (yield returning false) after releasing every lent slab is the
// clean-abort path; the producer reclaims its resources promptly either
// way. Producers never yield empty slabs.
type ChunkStream interface {
	EdgeStream
	Chunks(yield func(edges []Edge, release func()) bool) error
}

// AsChunks returns the chunk-lending form of src, if it has one.
func AsChunks(src EdgeStream) (ChunkStream, bool) {
	cs, ok := src.(ChunkStream)
	return cs, ok
}

// MemGraph is an in-memory edge list implementing EdgeStream.
type MemGraph struct {
	N int
	E []Edge
}

// NewMemGraph returns a MemGraph over n vertices with the given edges.
func NewMemGraph(n int, edges []Edge) *MemGraph {
	return &MemGraph{N: n, E: edges}
}

// FromEdges builds a MemGraph inferring the vertex count as max id + 1.
func FromEdges(edges []Edge) *MemGraph {
	var max V
	has := false
	for _, e := range edges {
		has = true
		if e.U > max {
			max = e.U
		}
		if e.V > max {
			max = e.V
		}
	}
	n := 0
	if has {
		n = int(max) + 1
	}
	return &MemGraph{N: n, E: edges}
}

// NumVertices implements EdgeStream.
func (g *MemGraph) NumVertices() int { return g.N }

// NumEdges implements EdgeStream.
func (g *MemGraph) NumEdges() int64 { return int64(len(g.E)) }

// Edges implements EdgeStream.
func (g *MemGraph) Edges(yield func(u, v V) bool) error {
	for _, e := range g.E {
		if !yield(e.U, e.V) {
			return nil
		}
	}
	return nil
}

// Chunks implements ChunkStream: the edge list is already decoded and
// resident, so the whole of it is lent as a single slab with a no-op
// release.
func (g *MemGraph) Chunks(yield func(edges []Edge, release func()) bool) error {
	if len(g.E) == 0 {
		return nil
	}
	yield(g.E, func() {})
	return nil
}

// ErrVertexRange is returned when a stream yields a vertex id outside
// [0, NumVertices).
var ErrVertexRange = errors.New("graph: vertex id out of range")

// ErrDegreeOverflow is returned when a vertex's degree would exceed the
// int32 range — a pathological multigraph replaying the same edge billions
// of times. Wrapping negative would silently corrupt every consumer of the
// degree array (θ(u) in HDRF scores, the high-degree set of the CSR build),
// so the counting passes fail instead.
var ErrDegreeOverflow = errors.New("graph: vertex degree overflows int32")

// maxDegree is the largest representable degree; a variable so tests can
// lower it and exercise the overflow guard without streaming 2^31 edges.
var maxDegree int32 = math.MaxInt32

// VertexRangeError is ErrVertexRange for an edge (u,v) naming an id ≥ n,
// with the one wording every reader of edge streams uses.
func VertexRangeError(u, v V, n int) error {
	return fmt.Errorf("%w: edge (%d,%d) with n=%d", ErrVertexRange, u, v, n)
}

// EdgesInRange is src.Edges with every id checked: it stops the scan at the
// first edge naming a vertex id ≥ src.NumVertices() and returns
// ErrVertexRange. Partitioners that index per-vertex arrays with the ids
// they read, and run no counting pass that checks them first, read their
// input through it.
func EdgesInRange(src EdgeStream, yield func(u, v V) bool) error {
	n, bad := src.NumVertices(), error(nil)
	err := src.Edges(func(u, v V) bool {
		if int(u) >= n || int(v) >= n {
			bad = VertexRangeError(u, v, n)
			return false
		}
		return yield(u, v)
	})
	return cmp.Or(err, bad)
}

// DegreeOverflowError is ErrDegreeOverflow for an edge (u,v) whose endpoint
// count cannot grow: it names the endpoint with the larger count, u on a
// tie.
func DegreeOverflowError(deg []int32, u, v V) error {
	if deg[v] > deg[u] {
		u = v
	}
	return fmt.Errorf("%w: vertex %d", ErrDegreeOverflow, u)
}

// Degrees computes the total degree of every vertex in src (each undirected
// edge contributes 1 to both endpoints; self-loops contribute 2 to their
// vertex). It returns the degree array and the number of edges seen. Ids
// outside [0, NumVertices) return ErrVertexRange, and a degree past the
// int32 range ErrDegreeOverflow.
func Degrees(src EdgeStream) ([]int32, int64, error) {
	n := src.NumVertices()
	deg := make([]int32, n)
	var m int64
	var loopErr error
	err := src.Edges(func(u, v V) bool {
		if int(u) >= n || int(v) >= n {
			loopErr = VertexRangeError(u, v, n)
			return false
		}
		if deg[u] >= maxDegree || deg[v] >= maxDegree || (u == v && deg[u] >= maxDegree-1) {
			loopErr = DegreeOverflowError(deg, u, v)
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

// MeanDegree returns 2m/n, the average vertex degree the τ threshold is
// relative to (paper §3.1). It returns 0 for empty graphs.
func MeanDegree(n int, m int64) float64 {
	if n == 0 {
		return 0
	}
	return 2 * float64(m) / float64(n)
}

// HighDegree reports whether a vertex of degree d counts as high-degree for
// threshold factor tau and mean degree mean: d(v) > τ·d̄ (paper §3.1).
func HighDegree(d int32, tau, mean float64) bool {
	return float64(d) > tau*mean
}

// SplitByTau partitions the edges of src into the set incident to two
// high-degree vertices (h2h) and the rest, using threshold factor tau. It is
// the decomposition step of the simple hybrid baseline (paper §5.4) and of
// tests that cross-check the CSR builder.
func SplitByTau(src EdgeStream, tau float64) (rest, h2h []Edge, deg []int32, err error) {
	deg, m, err := Degrees(src)
	if err != nil {
		return nil, nil, nil, err
	}
	mean := MeanDegree(src.NumVertices(), m)
	err = src.Edges(func(u, v V) bool {
		if HighDegree(deg[u], tau, mean) && HighDegree(deg[v], tau, mean) {
			h2h = append(h2h, Edge{u, v})
		} else {
			rest = append(rest, Edge{u, v})
		}
		return true
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return rest, h2h, deg, nil
}
