package ne

import (
	"sort"

	"hep/internal/bitset"
	"hep/internal/graph"
	"hep/internal/part"
	"hep/internal/vheap"
)

// SNE is streaming NE (Zhang et al., KDD 2017): it keeps only a bounded
// sample of the edge stream in memory — SampleFactor × |E|/k edges, the
// paper configures factor 2 (Appendix A) — and runs neighborhood expansion
// inside the sample, refilling from the stream as partitions consume edges.
// The restricted view trades partitioning quality and run-time for memory
// (paper §6: "this leads to longer run-times and worse partitioning
// quality").
type SNE struct {
	part.SinkHolder

	// SampleFactor scales the in-memory sample: capacity =
	// SampleFactor·⌈|E|/k⌉ edges (default 2, the paper's setting).
	SampleFactor int
}

// Name implements part.Algorithm.
func (s *SNE) Name() string { return "SNE" }

// Partition implements part.Algorithm.
func (s *SNE) Partition(src graph.EdgeStream, k int) (*part.Result, error) {
	factor := s.SampleFactor
	if factor <= 0 {
		factor = 2
	}
	n := src.NumVertices()
	res := part.NewResult(n, k)
	res.Sink = s.Sink

	// Buffer the stream edge by edge; the channel-free pull model uses a
	// materialized cursor over the stream (streams are restartable but we
	// need only one pass here).
	var pending []graph.Edge
	err := graph.EdgesInRange(src, func(u, v graph.V) bool {
		pending = append(pending, graph.Edge{U: u, V: v})
		return true
	})
	if err != nil {
		return nil, err
	}
	// The balance bound and the sample size come from the edges read, not
	// from NumEdges, which may be 0 ("count unknown") or wrong.
	m := int64(len(pending))
	bound := (m + int64(k) - 1) / int64(k)
	capEdges := int(bound) * factor
	if capEdges < 16 {
		capEdges = 16
	}

	run := &sneRun{
		n:      n,
		k:      k,
		res:    res,
		bound:  bound,
		cap:    capEdges,
		stream: pending,
		core:   bitset.New(n),
		curS:   bitset.New(n),
		heap:   vheap.New(n),
	}
	run.run()
	return res, nil
}

// sneRun holds the in-flight SNE state: a bounded buffer with a rebuilt
// adjacency index per refill.
type sneRun struct {
	n     int
	k     int
	res   *part.Result
	bound int64
	cap   int

	stream []graph.Edge // not-yet-buffered tail of the stream
	buf    []graph.Edge // in-memory sample
	dead   []bool       // buf entries already assigned

	adj    map[graph.V][]int32 // buffer-local adjacency (edge indexes)
	core   *bitset.Set         // global core set across partitions
	curS   *bitset.Set
	member []graph.V
	heap   *vheap.Heap
}

func (r *sneRun) run() {
	for i := 0; i < r.k-1; i++ {
		for r.res.Counts[i] < r.bound {
			r.refill()
			if len(r.buf) == 0 {
				break
			}
			r.expandPartition(i)
		}
		r.resetSecondary()
	}
	// Last partition: everything left in buffer and stream.
	last := r.k - 1
	r.refill()
	for len(r.buf) > 0 {
		for idx, e := range r.buf {
			if !r.dead[idx] {
				r.res.Assign(e.U, e.V, last)
			}
		}
		r.buf = r.buf[:0]
		r.dead = r.dead[:0]
		r.refill()
	}
}

// refill tops the buffer up to capacity, compacting dead entries and
// rebuilding the adjacency index (the repeated index construction is the
// run-time cost inherent to chunked NE).
func (r *sneRun) refill() {
	live := r.buf[:0]
	for idx, e := range r.buf {
		if !r.dead[idx] {
			live = append(live, e)
		}
	}
	r.buf = live
	for len(r.buf) < r.cap && len(r.stream) > 0 {
		r.buf = append(r.buf, r.stream[0])
		r.stream = r.stream[1:]
	}
	r.dead = make([]bool, len(r.buf))
	r.adj = make(map[graph.V][]int32, len(r.buf))
	for idx, e := range r.buf {
		r.adj[e.U] = append(r.adj[e.U], int32(idx))
		r.adj[e.V] = append(r.adj[e.V], int32(idx))
	}
}

// expandPartition runs neighborhood expansion for partition i within the
// current buffer until the capacity bound is hit or the buffer is drained.
func (r *sneRun) expandPartition(i int) {
	for r.res.Counts[i] < r.bound {
		var v graph.V
		if r.heap.Len() > 0 {
			v, _ = r.heap.PopMin()
		} else {
			seed, ok := r.seed()
			if !ok {
				// No non-core vertex has a live edge, so every live edge
				// connects two vertices cored in earlier rounds (they
				// entered the buffer after both endpoints were expanded).
				// Expansion can never reach them; sweep them out.
				r.sweepBothCore(i)
				return
			}
			v = seed
		}
		r.moveToCore(v, i)
	}
}

// sweepBothCore assigns all remaining live edges (both endpoints in the
// core set of some earlier round). Placement is replica-aware: among the
// partitions below the balance bound, prefer the one already covering both
// endpoints, then either, then the least loaded — the stickiness a chunked
// partitioner needs to keep late chunks from scattering.
func (r *sneRun) sweepBothCore(i int) {
	for idx, e := range r.buf {
		if r.dead[idx] {
			continue
		}
		r.dead[idx] = true
		best, bestScore := -1, -1
		for p := 0; p < r.k; p++ {
			if r.res.Counts[p] >= r.bound && p != r.k-1 {
				continue
			}
			score := 0
			if r.res.Reps.Has(e.U, p) {
				score++
			}
			if r.res.Reps.Has(e.V, p) {
				score++
			}
			if score > bestScore || (score == bestScore && best >= 0 && r.res.Counts[p] < r.res.Counts[best]) {
				best, bestScore = p, score
			}
		}
		if best < 0 {
			best = i
		}
		r.assign(e.U, e.V, best)
	}
}

// seed picks the buffered vertex with a live edge and the smallest degree
// inside the buffer (deterministic; cheap because the adjacency map is
// rebuilt per refill anyway).
func (r *sneRun) seed() (graph.V, bool) {
	var cand []graph.V
	for v := range r.adj {
		if r.core.Has(v) {
			continue
		}
		if r.liveDegree(v) > 0 {
			cand = append(cand, v)
		}
	}
	if len(cand) == 0 {
		return 0, false
	}
	sort.Slice(cand, func(a, b int) bool { return cand[a] < cand[b] })
	best := cand[0]
	bestDeg := r.liveDegree(best)
	for _, v := range cand[1:] {
		if d := r.liveDegree(v); d < bestDeg {
			best, bestDeg = v, d
		}
	}
	return best, true
}

func (r *sneRun) liveDegree(v graph.V) int32 {
	var d int32
	for _, idx := range r.adj[v] {
		if !r.dead[idx] {
			d++
		}
	}
	return d
}

func (r *sneRun) moveToCore(v graph.V, i int) {
	r.core.Set(v)
	r.heap.Remove(v)
	for _, idx := range r.adj[v] {
		if r.dead[idx] {
			continue
		}
		u := r.bufOther(idx, v)
		if !r.core.Has(u) && !r.curS.Has(u) {
			r.moveToSecondary(u, i)
		}
	}
}

func (r *sneRun) bufOther(idx int32, v graph.V) graph.V {
	e := r.buf[idx]
	if e.U == v {
		return e.V
	}
	return e.U
}

func (r *sneRun) moveToSecondary(v graph.V, i int) {
	r.curS.Set(v)
	r.member = append(r.member, v)
	var dext int32
	for _, idx := range r.adj[v] {
		if r.dead[idx] {
			continue
		}
		u := r.bufOther(idx, v)
		if r.core.Has(u) || r.curS.Has(u) {
			r.dead[idx] = true
			e := r.buf[idx]
			r.assign(e.U, e.V, i)
			if r.heap.Contains(u) {
				r.heap.Add(u, -1)
			}
		} else {
			dext++
		}
	}
	r.heap.Push(v, dext)
}

// assign places an edge with spill-over past full partitions (the balance
// bound applies to SNE exactly as to NE).
func (r *sneRun) assign(u, v graph.V, i int) {
	for r.res.Counts[i] >= r.bound && i+1 < r.k {
		i++
	}
	r.res.Assign(u, v, i)
}

func (r *sneRun) resetSecondary() {
	for _, v := range r.member {
		r.curS.Clear(v)
	}
	r.member = r.member[:0]
	r.heap.Reset()
}
