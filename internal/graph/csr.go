package graph

import (
	"fmt"
	"math"

	"hep/internal/bitset"
	"hep/internal/check"
)

// H2HStore receives edges between two high-degree vertices during CSR
// construction (the "external edge file" of paper §3.2.1) and replays them
// to the streaming phase. The default store is in memory (MemH2H);
// ooc.VarintH2H spills to disk as a delta-varint run. Stores do not lend
// chunks: the placement batch loop copies their edges into its own slab
// (shard.Lend), which is cheap — E_h2h is a small share of E.
type H2HStore interface {
	Append(u, v V) error
	Len() int64
	Edges(yield func(u, v V) bool) error
	Close() error
}

// MemH2H is an in-memory H2HStore.
type MemH2H struct {
	edges []Edge
}

// Append implements H2HStore.
func (s *MemH2H) Append(u, v V) error {
	s.edges = append(s.edges, Edge{u, v})
	return nil
}

// Len implements H2HStore.
func (s *MemH2H) Len() int64 { return int64(len(s.edges)) }

// Edges implements H2HStore.
func (s *MemH2H) Edges(yield func(u, v V) bool) error {
	for _, e := range s.edges {
		if !yield(e.U, e.V) {
			return nil
		}
	}
	return nil
}

// Close implements H2HStore.
func (s *MemH2H) Close() error { return nil }

// CSR is the pruned compressed-sparse-row representation of paper §3.2.1.
//
// Per low-degree vertex v the column array holds an out-list (neighbors u
// of edges (v,u) in input orientation) followed by an in-list (neighbors u
// of edges (u,v)); the split into two segments implements the second index
// array of §3.2.3 ("Building the Last Partition"). High-degree vertices own
// no segments at all: their edges appear only in the lists of low-degree
// neighbors, and edges between two high-degree vertices go to the H2H store.
//
// outSize/inSize are the "size fields" that make lazy edge removal a
// constant-time swap-with-last (paper §3.2.2, Figure 6). Entries past the
// size field are dead but still allocated; the capacity of a segment is
// fixed at build time.
type CSR struct {
	n int
	m int64 // total edges including H2H

	outIdx  []int64 // len n+1: start of v's block (out segment)
	inIdx   []int64 // len n: start of v's in segment; block ends at outIdx[v+1]
	outSize []int32
	inSize  []int32
	col     []V

	deg  []int32 // original total degree
	high *bitset.Set

	h2h    H2HStore
	h2hLen int64
}

// BuildCSR constructs a pruned CSR from src with threshold factor tau.
// tau = math.Inf(1) disables pruning (pure NE++ over the full graph).
// If store is nil an in-memory H2H store is used. Self-loops are rejected,
// ids outside [0, NumVertices) return ErrVertexRange and a degree past the
// int32 range ErrDegreeOverflow.
//
// Construction is the two-pass O(|E| + |V|) procedure of paper §4.1: the
// first pass counts degrees and sizes the index arrays, the second pass
// inserts edges into the column array or spills them to the H2H store. Both
// passes run sequentially at every worker count: on a 2-core host a
// batch-parallel form (lane-folded counts, atomic slot claims) was about
// twice as slow per edge.
func BuildCSR(src EdgeStream, tau float64, store H2HStore) (*CSR, error) {
	if tau <= 0 {
		return nil, fmt.Errorf("graph: tau must be positive, got %v", tau)
	}
	n := src.NumVertices()
	outDeg := make([]int32, n)
	inDeg := make([]int32, n)
	deg := make([]int32, n)
	var m int64
	var loopErr error
	err := src.Edges(func(u, v V) bool {
		if int(u) >= n || int(v) >= n {
			loopErr = VertexRangeError(u, v, n)
			return false
		}
		if u == v {
			loopErr = fmt.Errorf("graph: self-loop at vertex %d", u)
			return false
		}
		if deg[u] >= maxDegree || deg[v] >= maxDegree {
			loopErr = DegreeOverflowError(deg, u, v)
			return false
		}
		outDeg[u]++
		inDeg[v]++
		deg[u]++
		deg[v]++
		m++
		return true
	})
	if err != nil {
		return nil, err
	}
	if loopErr != nil {
		return nil, loopErr
	}

	c := assembleCSR(n, m, tau, outDeg, inDeg, deg, store)

	// Second pass: fill segments; outSize/inSize double as fill cursors.
	err = src.Edges(func(u, v V) bool {
		uh, vh := c.high.Has(u), c.high.Has(v)
		if uh && vh {
			if e := c.h2h.Append(u, v); e != nil {
				loopErr = e
				return false
			}
			c.h2hLen++
			return true
		}
		if !uh {
			c.col[c.outIdx[u]+int64(c.outSize[u])] = v
			c.outSize[u]++
		}
		if !vh {
			c.col[c.inIdx[v]+int64(c.inSize[v])] = u
			c.inSize[v]++
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if loopErr != nil {
		return nil, loopErr
	}
	return c, nil
}

// assembleCSR builds the sized-but-empty frame of a pruned CSR from the
// first pass's per-vertex out/in-degree counts: it derives the mean degree
// and the high-degree set, sizes the index and column arrays (high-degree
// vertices get empty segments), and installs the H2H store (in-memory if
// nil). BuildCSR's second pass fills it. deg is adopted as the CSR's degree
// array, not copied.
func assembleCSR(n int, m int64, tau float64, outDeg, inDeg, deg []int32, store H2HStore) *CSR {
	mean := MeanDegree(n, m)
	high := bitset.New(n)
	if !math.IsInf(tau, 1) {
		for v := 0; v < n; v++ {
			if HighDegree(deg[v], tau, mean) {
				high.Set(uint32(v))
			}
		}
	}

	c := &CSR{
		n: n, m: m,
		outIdx:  make([]int64, n+1),
		inIdx:   make([]int64, n),
		outSize: make([]int32, n),
		inSize:  make([]int32, n),
		deg:     deg,
		high:    high,
		h2h:     store,
	}
	if c.h2h == nil {
		c.h2h = &MemH2H{}
	}

	// Size the column array: high-degree vertices get empty segments.
	var off int64
	for v := 0; v < n; v++ {
		c.outIdx[v] = off
		oc, ic := int64(outDeg[v]), int64(inDeg[v])
		if high.Has(uint32(v)) {
			oc, ic = 0, 0
		}
		c.inIdx[v] = off + oc
		off += oc + ic
	}
	c.outIdx[n] = off
	c.col = make([]V, off)
	return c
}

// N returns the number of vertices.
func (c *CSR) N() int { return c.n }

// M returns the total number of edges, including those in the H2H store.
func (c *CSR) M() int64 { return c.m }

// InMemEdges returns |E \ E_h2h|, the number of edges represented in the
// column array and partitioned by NE++ (the adapted capacity bound of
// §3.2.3 divides this by k).
func (c *CSR) InMemEdges() int64 { return c.m - c.h2hLen }

// H2H returns the spill store holding edges between two high-degree
// vertices, to be partitioned by the streaming phase.
func (c *CSR) H2H() H2HStore { return c.h2h }

// Degree returns the original total degree of v in the input graph.
func (c *CSR) Degree(v V) int32 { return c.deg[v] }

// Degrees exposes the degree array (shared, do not mutate).
func (c *CSR) Degrees() []int32 { return c.deg }

// IsHigh reports whether v is a high-degree vertex (d(v) > τ·d̄).
func (c *CSR) IsHigh(v V) bool { return c.high.Has(v) }

// HighSet exposes the high-degree bitset (shared, do not mutate); NE++
// copies it into its per-vertex state bytes.
func (c *CSR) HighSet() *bitset.Set { return c.high }

// Lists returns v's valid out- and in-list as mutable views into the
// column array. Out entry i is the right-hand endpoint of an edge
// (v, out[i]) in input orientation, in entry i the left-hand endpoint of an
// edge (in[i], v).
func (c *CSR) Lists(v V) (out, in []V) {
	o, i := c.outIdx[v], c.inIdx[v]
	return c.col[o : o+int64(c.outSize[v])], c.col[i : i+int64(c.inSize[v])]
}

// ValidDegree returns the number of valid (not yet removed) entries in v's
// lists. For a vertex outside the core set at a partition boundary this is
// exactly its number of unassigned edges (invariant 2 on core.NEPP).
func (c *CSR) ValidDegree(v V) int32 { return c.outSize[v] + c.inSize[v] }

// SetLens writes back v's list lengths after entries were removed from the
// views Lists returned by swapping in the last valid entry — the
// constant-time removal of §3.2.2. Removed entries stay allocated past the
// size fields; a list never grows.
func (c *CSR) SetLens(v V, out, in int) {
	if check.Enabled {
		check.Assertf(out <= int(c.outSize[v]) && in <= int(c.inSize[v]),
			"graph: SetLens(%d, %d, %d) grows lists of lengths %d, %d", v, out, in, c.outSize[v], c.inSize[v])
	}
	c.outSize[v], c.inSize[v] = int32(out), int32(in)
}

// OutSpan returns the column-array offset and valid length of v's out
// segment (used by the paging simulator's access trace).
func (c *CSR) OutSpan(v V) (offset int64, n int32) { return c.outIdx[v], c.outSize[v] }

// InSpan returns the column-array offset and valid length of v's in segment.
func (c *CSR) InSpan(v V) (offset int64, n int32) { return c.inIdx[v], c.inSize[v] }

// ColLen returns the length of the column array (total allocated entries).
func (c *CSR) ColLen() int64 { return int64(len(c.col)) }

// MemBytes returns the actual byte footprint of the CSR's backing arrays.
func (c *CSR) MemBytes() int64 {
	return int64(len(c.col))*4 +
		int64(len(c.outIdx))*8 + int64(len(c.inIdx))*8 +
		int64(len(c.outSize))*4 + int64(len(c.inSize))*4 +
		int64(len(c.deg))*4 + c.high.Bytes()
}
