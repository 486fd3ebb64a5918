// Package ne implements the reference neighborhood-expansion partitioner NE
// (Zhang et al., KDD 2017) and its streaming variant SNE, the two strongest
// quality baselines in the paper's evaluation.
//
// NE here follows the *reference* design the paper contrasts NE++ against
// (§3.2, "Limitations of NE"): the whole graph is loaded into memory as an
// edge array plus an edge-id adjacency index, double assignments are
// prevented by an auxiliary per-edge validity structure (eager
// invalidation), and initialization picks seed vertices at random. These
// choices cost memory and cache locality — exactly the overheads NE++
// removes — while producing the same partitioning quality.
//
// Vertex ids must be below the stream's NumVertices: NE and SNE index
// per-vertex arrays with them unchecked, so a larger id panics. The hep
// facade checks every id first and returns graph.ErrVertexRange instead.
package ne

import (
	"math/rand"

	"hep/internal/bitset"
	"hep/internal/graph"
	"hep/internal/part"
	"hep/internal/vheap"
)

// NE is the reference in-memory neighborhood expansion partitioner.
type NE struct {
	part.SinkHolder

	// Seed drives randomized initialization (the reference strategy the
	// paper's sequential search replaces, §3.2.3).
	Seed int64
	// SequentialInit switches to NE++-style sequential seed search
	// (ablation knob).
	SequentialInit bool
}

// Name implements part.Algorithm.
func (n *NE) Name() string { return "NE" }

// Partition implements part.Algorithm.
func (n *NE) Partition(src graph.EdgeStream, k int) (*part.Result, error) {
	res := part.NewResult(src.NumVertices(), k)
	res.Sink = n.Sink
	if err := Run(src, k, res, n.Seed, n.SequentialInit); err != nil {
		return nil, err
	}
	return res, nil
}

// state is a loaded NE instance: edge array + edge-id adjacency + validity.
type state struct {
	n     int
	edges []graph.Edge
	// adjacency: edge ids incident to v are adjEid[adjIdx[v]:adjIdx[v+1]].
	adjIdx []int64
	adjEid []int32
	valid  *bitset.Set // the auxiliary "is this edge unassigned" structure

	res   *part.Result
	k     int
	bound int64

	core    *bitset.Set
	curS    *bitset.Set
	members []graph.V
	heap    *vheap.Heap

	nextS       *bitset.Set
	nextMembers []graph.V
	cur         int

	rng        *rand.Rand
	sequential bool
	seedCursor int
}

// Run executes NE over src into an existing result — the entry point the
// simple hybrid baseline (paper §5.4) composes with random streaming.
func Run(src graph.EdgeStream, k int, res *part.Result, seed int64, sequential bool) error {
	st, err := load(src, k, res)
	if err != nil {
		return err
	}
	st.rng = rand.New(rand.NewSource(seed))
	st.sequential = sequential
	st.run()
	return nil
}

func load(src graph.EdgeStream, k int, res *part.Result) (*state, error) {
	n := src.NumVertices()
	var edges []graph.Edge
	if m := src.NumEdges(); m > 0 {
		edges = make([]graph.Edge, 0, m)
	}
	deg := make([]int64, n+1)
	err := src.Edges(func(u, v graph.V) bool {
		edges = append(edges, graph.Edge{U: u, V: v})
		deg[u]++
		deg[v]++
		return true
	})
	if err != nil {
		return nil, err
	}
	m := int64(len(edges))
	st := &state{
		n:      n,
		edges:  edges,
		adjIdx: make([]int64, n+1),
		adjEid: make([]int32, 2*m),
		valid:  bitset.New(int(m)),
		res:    res,
		k:      k,
		bound:  (m + int64(k) - 1) / int64(k),
		core:   bitset.New(n),
		curS:   bitset.New(n),
		nextS:  bitset.New(n),
		heap:   vheap.New(n),
	}
	var off int64
	for v := 0; v < n; v++ {
		st.adjIdx[v] = off
		off += deg[v]
	}
	st.adjIdx[n] = off
	fill := make([]int64, n)
	for eid, e := range edges {
		st.valid.Set(uint32(eid))
		st.adjEid[st.adjIdx[e.U]+fill[e.U]] = int32(eid)
		fill[e.U]++
		st.adjEid[st.adjIdx[e.V]+fill[e.V]] = int32(eid)
		fill[e.V]++
	}
	return st, nil
}

func (st *state) run() {
	if st.k > 1 {
		for i := 0; i < st.k-1; i++ {
			st.cur = i
			if st.expand(i) {
				break
			}
			st.advanceSecondary()
		}
	}
	// Last partition: every remaining valid edge (Algorithm 3 degenerates
	// to a plain sweep when all edges are in memory).
	last := st.k - 1
	for eid, e := range st.edges {
		if st.valid.Has(uint32(eid)) {
			st.valid.Clear(uint32(eid))
			st.res.Assign(e.U, e.V, last)
		}
	}
}

func (st *state) expand(i int) (exhausted bool) {
	for st.res.Counts[i] < st.bound {
		var v graph.V
		if st.heap.Len() > 0 {
			v, _ = st.heap.PopMin()
		} else {
			seed, ok := st.nextSeed()
			if !ok {
				return true
			}
			v = seed
		}
		st.moveToCore(v, i)
	}
	return false
}

// nextSeed picks an initialization vertex. The reference strategy samples
// uniformly at random until it hits a suitable vertex — increasingly
// wasteful as the core set grows (the overhead §3.2.3 describes) — with a
// bounded number of attempts before degrading to a scan from a random
// offset.
func (st *state) nextSeed() (graph.V, bool) {
	if st.sequential {
		for st.seedCursor < st.n {
			v := graph.V(st.seedCursor)
			if st.suitable(v) {
				return v, true
			}
			st.seedCursor++
		}
		return 0, false
	}
	for try := 0; try < 64; try++ {
		v := graph.V(st.rng.Intn(st.n))
		if st.suitable(v) {
			return v, true
		}
	}
	start := st.rng.Intn(st.n)
	for i := 0; i < st.n; i++ {
		v := graph.V((start + i) % st.n)
		if st.suitable(v) {
			return v, true
		}
	}
	return 0, false
}

func (st *state) suitable(v graph.V) bool {
	if st.core.Has(v) {
		return false
	}
	for _, eid := range st.adj(v) {
		if st.valid.Has(uint32(eid)) {
			return true
		}
	}
	return false
}

func (st *state) adj(v graph.V) []int32 {
	return st.adjEid[st.adjIdx[v]:st.adjIdx[v+1]]
}

func (st *state) other(eid int32, v graph.V) graph.V {
	e := st.edges[eid]
	if e.U == v {
		return e.V
	}
	return e.U
}

func (st *state) moveToCore(v graph.V, i int) {
	st.core.Set(v)
	st.heap.Remove(v)
	for _, eid := range st.adj(v) {
		if !st.valid.Has(uint32(eid)) {
			continue
		}
		u := st.other(eid, v)
		if !st.core.Has(u) && !st.curS.Has(u) {
			st.moveToSecondary(u, i)
		}
	}
}

func (st *state) moveToSecondary(v graph.V, i int) {
	st.curS.Set(v)
	st.members = append(st.members, v)
	var dext int32
	for _, eid := range st.adj(v) {
		if !st.valid.Has(uint32(eid)) {
			continue
		}
		u := st.other(eid, v)
		if st.core.Has(u) || st.curS.Has(u) {
			// Eager invalidation: the edge is assigned and marked invalid
			// in the auxiliary structure immediately.
			st.valid.Clear(uint32(eid))
			e := st.edges[eid]
			st.assign(e.U, e.V, i)
			if st.heap.Contains(u) {
				st.heap.Add(u, -1)
			}
		} else {
			dext++
		}
	}
	st.heap.Push(v, dext)
}

func (st *state) assign(u, v graph.V, i int) {
	target := i
	for st.res.Counts[target] >= st.bound && target+1 < st.k {
		target++
	}
	if target == st.cur+1 && target < st.k-1 {
		st.preseed(u)
		st.preseed(v)
	}
	st.res.Assign(u, v, target)
}

func (st *state) preseed(v graph.V) {
	if !st.nextS.Has(v) {
		st.nextS.Set(v)
		st.nextMembers = append(st.nextMembers, v)
	}
}

func (st *state) advanceSecondary() {
	for _, v := range st.members {
		st.curS.Clear(v)
	}
	st.members = st.members[:0]
	st.heap.Reset()

	st.curS, st.nextS = st.nextS, st.curS
	st.members, st.nextMembers = st.nextMembers, st.members
	for _, v := range st.members {
		if st.core.Has(v) {
			continue
		}
		var d int32
		for _, eid := range st.adj(v) {
			if st.valid.Has(uint32(eid)) {
				d++
			}
		}
		if d > 0 {
			st.heap.Push(v, d)
		}
	}
}
