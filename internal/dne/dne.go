// Package dne implements a Distributed Neighborhood Expansion baseline in
// the style of DNE (Hanai et al., VLDB 2019): all k partitions expand
// *concurrently*, each with its own core/boundary state, claiming edges
// from a shared pool with atomic compare-and-swap. Parallelism buys
// run-time and scalability but degrades quality and balance — exactly the
// behavior the paper observes (§5.2: "the distributed and parallel nature
// of DNE leads to a degradation of the yielded replication factors", and
// DNE "could not always keep the partitions balanced").
//
// The paper runs DNE across MPI processes; this reproduction runs the
// expanders as goroutines inside one process, which preserves the causal
// structure (concurrent greedy claiming with stale views) on one machine.
//
// Vertex ids must be below the stream's NumVertices: DNE indexes
// per-vertex arrays with them unchecked, so a larger id panics. The hep
// facade checks every id first and returns graph.ErrVertexRange instead.
package dne

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"hep/internal/bitset"
	"hep/internal/graph"
	"hep/internal/part"
	"hep/internal/vheap"
)

// DNE is the parallel neighborhood-expansion partitioner.
type DNE struct {
	part.SinkHolder

	// Workers is the number of concurrent expander goroutines (default
	// GOMAXPROCS via runtime; expanders own partitions round-robin).
	Workers int
	// ExpansionRatio is the fraction of a partition's boundary expanded
	// per round (default 0.1, the paper's DNE configuration).
	ExpansionRatio float64
	// BalanceFactor bounds partition sizes at BalanceFactor·|E|/k
	// (default 1.05, the paper's DNE configuration).
	BalanceFactor float64
	// Seed drives the per-partition seed choice.
	Seed int64
}

// Name implements part.Algorithm.
func (d *DNE) Name() string { return "DNE" }

// shared is the expanders' common state; edge ownership lives in the Claims
// array (0 = unclaimed, p+1 = claimed by partition p).
type shared struct {
	edges  []graph.Edge
	adjIdx []int64
	adjEid []int32
	claim  *Claims
	counts []atomic.Int64
	bound  int64
	k      int
}

// Partition implements part.Algorithm.
func (d *DNE) Partition(src graph.EdgeStream, k int) (*part.Result, error) {
	workers := d.Workers
	if workers <= 0 {
		workers = 2
	}
	if workers > k {
		workers = k
	}
	ratio := d.ExpansionRatio
	if ratio <= 0 {
		ratio = 0.1
	}
	bf := d.BalanceFactor
	if bf < 1 {
		bf = 1.05
	}

	n := src.NumVertices()
	var edges []graph.Edge
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

	sh := &shared{
		edges:  edges,
		adjIdx: make([]int64, n+1),
		adjEid: make([]int32, 2*m),
		claim:  NewClaims(int(m)),
		counts: make([]atomic.Int64, k),
		bound:  int64(bf*float64(m)/float64(k)) + 1,
		k:      k,
	}
	var off int64
	for v := 0; v < n; v++ {
		sh.adjIdx[v] = off
		off += deg[v]
	}
	sh.adjIdx[n] = off
	fill := make([]int64, n)
	for eid, e := range edges {
		sh.adjEid[sh.adjIdx[e.U]+fill[e.U]] = int32(eid)
		fill[e.U]++
		sh.adjEid[sh.adjIdx[e.V]+fill[e.V]] = int32(eid)
		fill[e.V]++
	}

	// Random seed vertices, one per partition — distinct while the vertex
	// set allows it (k may exceed n on degenerate inputs).
	rng := rand.New(rand.NewSource(d.Seed))
	seeds := make([]graph.V, k)
	used := map[graph.V]bool{}
	for p := 0; p < k; p++ {
		if len(used) >= n {
			seeds[p] = graph.V(rng.Intn(n))
			continue
		}
		for {
			v := graph.V(rng.Intn(n))
			if !used[v] {
				used[v] = true
				seeds[p] = v
				break
			}
		}
	}

	// Run expanders: worker w owns partitions w, w+workers, w+2·workers…
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var exps []*expander
			for p := w; p < k; p += workers {
				exps = append(exps, newExpander(sh, p, seeds[p], n))
			}
			for {
				progress := false
				for _, e := range exps {
					if e.round(ratio) {
						progress = true
					}
				}
				if !progress {
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// Sweep: any unclaimed edge (expanders exhausted or capacity-bounded)
	// goes to the currently least-loaded partition.
	for eid := 0; eid < sh.claim.Len(); eid++ {
		if !sh.claim.Claimed(eid) {
			best := 0
			for p := 1; p < k; p++ {
				if sh.counts[p].Load() < sh.counts[best].Load() {
					best = p
				}
			}
			sh.claim.Assign(eid, int32(best))
			sh.counts[best].Add(1)
		}
	}

	// Materialize the result deterministically from the claim array.
	res := part.NewResult(n, k)
	res.Sink = d.Sink
	for eid, e := range edges {
		res.Assign(e.U, e.V, int(sh.claim.Owner(eid)))
	}
	return res, nil
}

// expander grows one partition: a sequential NE loop whose edge
// acquisitions go through the shared CAS array.
type expander struct {
	sh   *shared
	p    int
	core *bitset.Set
	inS  *bitset.Set
	heap *vheap.Heap
	seed graph.V
	init bool
	done bool
}

func newExpander(sh *shared, p int, seed graph.V, n int) *expander {
	return &expander{
		sh:   sh,
		p:    p,
		core: bitset.New(n),
		inS:  bitset.New(n),
		heap: vheap.New(n),
		seed: seed,
	}
}

// round performs up to ratio·|S| expansion steps (at least one) and reports
// whether any edge was claimed.
func (e *expander) round(ratio float64) bool {
	if e.done {
		return false
	}
	if !e.init {
		e.init = true
		e.moveToSecondary(e.seed)
	}
	steps := int(ratio * float64(e.heap.Len()))
	if steps < 1 {
		steps = 1
	}
	progressed := false
	for s := 0; s < steps; s++ {
		if e.sh.counts[e.p].Load() >= e.sh.bound {
			e.done = true
			break
		}
		if e.heap.Len() == 0 {
			e.done = true
			break
		}
		v, _ := e.heap.PopMin()
		e.moveToCore(v)
		progressed = true // popping is progress even if all edges were taken
	}
	return progressed
}

func (e *expander) moveToCore(v graph.V) {
	e.core.Set(v)
	adj := e.sh.adjEid[e.sh.adjIdx[v]:e.sh.adjIdx[v+1]]
	for _, eid := range adj {
		if e.sh.claim.Claimed(int(eid)) {
			continue
		}
		ed := e.sh.edges[eid]
		u := ed.U
		if u == v {
			u = ed.V
		}
		if !e.inS.Has(u) && !e.core.Has(u) {
			e.moveToSecondary(u)
		}
		// Claim the edge for this partition if still free.
		if e.sh.claim.TryClaim(int(eid), int32(e.p)) {
			e.sh.counts[e.p].Add(1)
		}
	}
}

func (e *expander) moveToSecondary(v graph.V) {
	if e.inS.Has(v) || e.core.Has(v) {
		return
	}
	e.inS.Set(v)
	var dext int32
	adj := e.sh.adjEid[e.sh.adjIdx[v]:e.sh.adjIdx[v+1]]
	for _, eid := range adj {
		if !e.sh.claim.Claimed(int(eid)) {
			dext++
		}
	}
	e.heap.Push(v, dext)
}
