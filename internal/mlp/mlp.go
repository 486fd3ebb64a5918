// Package mlp implements a METIS-style multilevel vertex partitioner and
// the vertex→edge partition conversion the paper uses to compare against
// METIS (Appendix A): vertices are weighted by degree, partitioned k-ways
// by coarsening / initial partitioning / refinement, and each edge is then
// assigned randomly to the partition of one of its endpoints.
//
// Multilevel partitioning is the "gold standard" for quality on mesh-like
// graphs but pays heavily in run-time and memory on power-law graphs
// (paper §5.2 and §6), which this reproduction preserves structurally: the
// full graph (plus every coarsened level) is resident, and the coarsening /
// refinement pipeline costs several passes per level.
//
// MLP reads its input through graph.EdgesInRange, so a vertex id at or
// above the stream's NumVertices returns graph.ErrVertexRange.
package mlp

import (
	"math/rand"
	"sort"

	"hep/internal/graph"
	"hep/internal/part"
)

// MLP is the multilevel (METIS-like) partitioner.
type MLP struct {
	part.SinkHolder

	// Seed drives matching order, initial growing and edge conversion.
	Seed int64
	// CoarsenTo stops coarsening when at most max(CoarsenTo·k, 64)
	// vertices remain (default 30, in the METIS tradition).
	CoarsenTo int
	// RefinePasses is the number of boundary refinement sweeps per level
	// (default 4).
	RefinePasses int
	// Imbalance is the allowed vertex-weight imbalance (default 1.10).
	Imbalance float64
}

// Name implements part.Algorithm.
func (m *MLP) Name() string { return "METIS" }

// level is one graph in the multilevel hierarchy, in adjacency form with
// merged parallel edges.
type level struct {
	n      int
	vwgt   []int64  // vertex weights (sum of constituent degrees)
	adjIdx []int64  // CSR offsets
	adjV   []uint32 // neighbor
	adjW   []int64  // edge weight (merged multiplicity)
	coarse []uint32 // map: this level's vertex -> coarser vertex (after match)
}

// Partition implements part.Algorithm.
func (m *MLP) Partition(src graph.EdgeStream, k int) (*part.Result, error) {
	coarsenTo := m.CoarsenTo
	if coarsenTo <= 0 {
		coarsenTo = 30
	}
	passes := m.RefinePasses
	if passes <= 0 {
		passes = 4
	}
	imb := m.Imbalance
	if imb < 1 {
		imb = 1.10
	}
	rng := rand.New(rand.NewSource(m.Seed))

	base, err := buildLevel(src)
	if err != nil {
		return nil, err
	}

	// Coarsening by heavy-edge matching until small enough or stalled.
	levels := []*level{base}
	target := coarsenTo * k
	if target < 64 {
		target = 64
	}
	for levels[len(levels)-1].n > target {
		cur := levels[len(levels)-1]
		next, shrunk := coarsen(cur, rng)
		if !shrunk {
			break
		}
		levels = append(levels, next)
	}

	// Initial partitioning on the coarsest level by greedy growing.
	coarsest := levels[len(levels)-1]
	assign := initialPartition(coarsest, k, rng)
	refine(coarsest, assign, k, passes, imb)

	// Uncoarsen with refinement at every level.
	for li := len(levels) - 2; li >= 0; li-- {
		fine := levels[li]
		fineAssign := make([]int32, fine.n)
		for v := 0; v < fine.n; v++ {
			fineAssign[v] = assign[fine.coarse[v]]
		}
		assign = fineAssign
		refine(fine, assign, k, passes, imb)
	}

	// Vertex→edge conversion (Appendix A): each edge goes to the partition
	// of a uniformly chosen endpoint.
	res := part.NewResult(src.NumVertices(), k)
	res.Sink = m.Sink
	err = graph.EdgesInRange(src, func(u, v graph.V) bool {
		p := assign[u]
		if rng.Intn(2) == 1 {
			p = assign[v]
		}
		res.Assign(u, v, int(p))
		return true
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// buildLevel constructs the base level: weights = degrees, parallel edges
// merged (the input is simple, so all base weights are 1).
func buildLevel(src graph.EdgeStream) (*level, error) {
	n := src.NumVertices()
	deg := make([]int64, n)
	err := graph.EdgesInRange(src, func(u, v graph.V) bool {
		deg[u]++
		deg[v]++
		return true
	})
	if err != nil {
		return nil, err
	}
	l := &level{n: n, vwgt: make([]int64, n), adjIdx: make([]int64, n+1)}
	var off int64
	for v := 0; v < n; v++ {
		l.vwgt[v] = deg[v]
		l.adjIdx[v] = off
		off += deg[v]
	}
	l.adjIdx[n] = off
	l.adjV = make([]uint32, off)
	l.adjW = make([]int64, off)
	fill := make([]int64, n)
	err = graph.EdgesInRange(src, func(u, v graph.V) bool {
		l.adjV[l.adjIdx[u]+fill[u]] = v
		l.adjW[l.adjIdx[u]+fill[u]] = 1
		fill[u]++
		l.adjV[l.adjIdx[v]+fill[v]] = u
		l.adjW[l.adjIdx[v]+fill[v]] = 1
		fill[v]++
		return true
	})
	if err != nil {
		return nil, err
	}
	return l, nil
}

// coarsen performs one heavy-edge-matching contraction. It reports whether
// the graph shrank meaningfully (≥ 5%).
func coarsen(l *level, rng *rand.Rand) (*level, bool) {
	match := make([]int32, l.n)
	for i := range match {
		match[i] = -1
	}
	order := rng.Perm(l.n)
	coarseN := 0
	l.coarse = make([]uint32, l.n)
	for _, vi := range order {
		if match[vi] >= 0 {
			continue
		}
		v := uint32(vi)
		// Heaviest unmatched neighbor.
		bestW := int64(-1)
		best := int32(-1)
		for j := l.adjIdx[v]; j < l.adjIdx[v+1]; j++ {
			u := l.adjV[j]
			if match[u] >= 0 || u == v {
				continue
			}
			if l.adjW[j] > bestW {
				bestW = l.adjW[j]
				best = int32(u)
			}
		}
		if best >= 0 {
			match[v] = best
			match[best] = int32(v)
			l.coarse[v] = uint32(coarseN)
			l.coarse[best] = uint32(coarseN)
		} else {
			match[v] = int32(v)
			l.coarse[v] = uint32(coarseN)
		}
		coarseN++
	}
	if coarseN >= l.n-l.n/20 {
		return nil, false
	}

	// Contract: aggregate weights and merge parallel edges via sorting.
	next := &level{n: coarseN, vwgt: make([]int64, coarseN), adjIdx: make([]int64, coarseN+1)}
	type cedge struct {
		from, to uint32
		w        int64
	}
	var ces []cedge
	for v := 0; v < l.n; v++ {
		cv := l.coarse[v]
		next.vwgt[cv] += l.vwgt[v]
		for j := l.adjIdx[v]; j < l.adjIdx[v+1]; j++ {
			cu := l.coarse[l.adjV[j]]
			if cu == cv {
				continue // contracted edge disappears
			}
			ces = append(ces, cedge{from: cv, to: cu, w: l.adjW[j]})
		}
	}
	// vwgt was summed per constituent, but matched pairs were visited once
	// per member, so halve nothing — each v contributes once. Merge edges:
	sort.Slice(ces, func(a, b int) bool {
		if ces[a].from != ces[b].from {
			return ces[a].from < ces[b].from
		}
		return ces[a].to < ces[b].to
	})
	merged := ces[:0]
	for _, ce := range ces {
		if len(merged) > 0 && merged[len(merged)-1].from == ce.from && merged[len(merged)-1].to == ce.to {
			merged[len(merged)-1].w += ce.w
			continue
		}
		merged = append(merged, ce)
	}
	counts := make([]int64, coarseN)
	for _, ce := range merged {
		counts[ce.from]++
	}
	var off int64
	for v := 0; v < coarseN; v++ {
		next.adjIdx[v] = off
		off += counts[v]
	}
	next.adjIdx[coarseN] = off
	next.adjV = make([]uint32, off)
	next.adjW = make([]int64, off)
	fill := make([]int64, coarseN)
	for _, ce := range merged {
		next.adjV[next.adjIdx[ce.from]+fill[ce.from]] = ce.to
		next.adjW[next.adjIdx[ce.from]+fill[ce.from]] = ce.w
		fill[ce.from]++
	}
	return next, true
}

// initialPartition grows k regions by weighted BFS on the coarsest graph.
func initialPartition(l *level, k int, rng *rand.Rand) []int32 {
	assign := make([]int32, l.n)
	for i := range assign {
		assign[i] = -1
	}
	var totalW int64
	for _, w := range l.vwgt {
		totalW += w
	}
	targetW := totalW / int64(k)
	if targetW < 1 {
		targetW = 1
	}

	perm := rng.Perm(l.n)
	permPos := 0
	nextUnassigned := func() int {
		for permPos < len(perm) {
			v := perm[permPos]
			if assign[v] < 0 {
				return v
			}
			permPos++
		}
		return -1
	}

	queue := make([]uint32, 0, l.n)
	for p := 0; p < k; p++ {
		var w int64
		seed := nextUnassigned()
		if seed < 0 {
			break
		}
		queue = queue[:0]
		queue = append(queue, uint32(seed))
		assign[seed] = int32(p)
		w += l.vwgt[seed]
		for len(queue) > 0 && w < targetW {
			v := queue[0]
			queue = queue[1:]
			for j := l.adjIdx[v]; j < l.adjIdx[v+1]; j++ {
				u := l.adjV[j]
				if assign[u] < 0 {
					assign[u] = int32(p)
					w += l.vwgt[u]
					queue = append(queue, u)
					if w >= targetW {
						break
					}
				}
			}
			// Region ran out of frontier: jump to a fresh seed.
			if len(queue) == 0 && w < targetW {
				s := nextUnassigned()
				if s < 0 {
					break
				}
				assign[s] = int32(p)
				w += l.vwgt[s]
				queue = append(queue, uint32(s))
			}
		}
	}
	// Leftovers to the least-weighted partition.
	partW := make([]int64, k)
	for v := 0; v < l.n; v++ {
		if assign[v] >= 0 {
			partW[assign[v]] += l.vwgt[v]
		}
	}
	for v := 0; v < l.n; v++ {
		if assign[v] < 0 {
			best := 0
			for p := 1; p < k; p++ {
				if partW[p] < partW[best] {
					best = p
				}
			}
			assign[v] = int32(best)
			partW[best] += l.vwgt[v]
		}
	}
	return assign
}

// refine performs greedy boundary moves reducing the weighted edge cut
// subject to the vertex-weight imbalance bound.
func refine(l *level, assign []int32, k, passes int, imb float64) {
	partW := make([]int64, k)
	var totalW int64
	for v := 0; v < l.n; v++ {
		partW[assign[v]] += l.vwgt[v]
		totalW += l.vwgt[v]
	}
	maxW := int64(imb * float64(totalW) / float64(k))
	if maxW < 1 {
		maxW = 1
	}

	gains := make([]int64, k)
	for pass := 0; pass < passes; pass++ {
		moved := 0
		for v := 0; v < l.n; v++ {
			home := assign[v]
			// Connectivity of v to each partition.
			touched := gains[:0]
			_ = touched
			for p := range gains {
				gains[p] = 0
			}
			for j := l.adjIdx[v]; j < l.adjIdx[v+1]; j++ {
				gains[assign[l.adjV[j]]] += l.adjW[j]
			}
			best := home
			for p := 0; p < k; p++ {
				if int32(p) == home || partW[p]+l.vwgt[v] > maxW {
					continue
				}
				if gains[p] > gains[best] || (gains[p] == gains[best] && partW[p] < partW[best]) {
					best = int32(p)
				}
			}
			if best != home && gains[best] > gains[home] {
				assign[v] = best
				partW[home] -= l.vwgt[v]
				partW[best] += l.vwgt[v]
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
}
