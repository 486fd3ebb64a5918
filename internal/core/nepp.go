// Package core implements the paper's primary contribution: the NE++
// in-memory edge partitioner (§3.2) and the HEP hybrid system that combines
// it with informed stateful streaming (§3, §3.3).
package core

import (
	"hep/internal/graph"
	"hep/internal/part"
	"hep/internal/vheap"
)

// Tracer observes column-array accesses; the paging simulator replays the
// trace through an LRU page cache (substitute for the cgroups experiment of
// paper §5.5). A nil tracer costs one branch per vertex whose lists NE++
// scans.
type Tracer interface {
	// Touch records an access to column-array entries [off, off+n).
	Touch(off int64, n int32)
}

// Stats collects the instrumentation behind Figures 5 and 7 and general
// diagnostics of a NE++ run.
type Stats struct {
	// CoreDegSum/CoreCount aggregate the degrees of vertices moved to the
	// core set; SecDegSum/SecCount those of vertices that remained in a
	// secondary set at the end of a partition (Figure 5 plots the
	// normalized ratio of the two means).
	CoreDegSum, SecDegSum int64
	CoreCount, SecCount   int64
	// CleanupRemoved counts column-array entries removed by the clean-up
	// algorithm (Figure 7 reports CleanupRemoved / ColEntries).
	CleanupRemoved int64
	// CleanupAssigned counts low↔high edges whose assignment was deferred
	// to clean-up (invariant 1 on NEPP).
	CleanupAssigned int64
	// AssignRemoved counts entries swap-removed at assignment time (the
	// low↔high rule); these are not clean-up removals.
	AssignRemoved int64
	// SpillEdges counts edges spilled to the next partition at the
	// capacity bound (Algorithm 1, lines 25–28).
	SpillEdges int64
	// Seeds counts Initialize invocations (Algorithm 1, lines 1–3).
	Seeds int64
	// ColEntries is the column-array length after construction.
	ColEntries int64
	// H2HEdges is |E_h2h| handed to the streaming phase.
	H2HEdges int64
	// InMemBound is the adapted per-partition capacity ⌈|E \ E_h2h|/k⌉.
	InMemBound int64
}

// Bits of NEPP's per-vertex state byte.
const (
	stHigh uint8 = 1 << iota // high-degree: owns no lists (copied from the CSR)
	stCore                   // in the global core set C
	stSA                     // secondary-set bit A
	stSB                     // secondary-set bit B
)

// NEPP runs the NE++ expansion over a pruned CSR, assigning every in-memory
// edge (all edges except E_h2h) to one of k partitions. The CSR is consumed:
// its size fields shrink as edges are removed.
//
// Vertex state is one byte per vertex: the high-degree bit, the core bit,
// and two secondary-set bits, so each adjacency entry NE++ reads costs one
// load and its membership tests run on a register. One secondary-set bit
// stands for S_i, the partition currently expanding; the other for
// S_{i+1}, which spilled edges pre-seed. At a partition boundary the S_i
// bit is cleared on S_i's members and the two bits swap roles, so no set
// is ever copied or cleared in full.
//
// Each phase (moveToCore, moveToSecondary, cleanup) walks a vertex v's
// out-list and then its in-list with one scan on the views CSR.Lists
// returns, swap-removes on the view, and writes both lengths back once
// with CSR.SetLens. One write-back is exact: while v's lists are scanned,
// the nested moveToSecondary(u), assign and preseed write only u's lists
// and the state bytes, never v's size fields.
//
// Three invariants make the pruned-graph adaptation of §3.2.3 exact:
//
//  1. Low↔high edges live only in the low endpoint's lists, and a valid
//     entry pointing at a high-degree vertex is always an unassigned edge:
//     the edge is assigned and its entry swap-removed in one step. That
//     step runs when the low side joins C, which pulls the high side into
//     S_i, or joins S_i after the high side. When the high side joins S_i
//     after the low side, no scan of the low side's lists follows, so
//     unless the low side later moves to C the edge is deferred to
//     clean-up, which assigns it to p_i (Stats.CleanupAssigned).
//  2. At a partition boundary, the valid degree of a vertex outside C is
//     exactly its number of unassigned edges: clean-up removed every entry
//     of an S_i member pointing into C ∪ S_i, and a vertex outside C ∪ S_i
//     has no assigned edge.
//  3. No valid entry points inside a pre-seeded S_{i+1}: every spilled edge
//     joined two members of C ∪ S_i, so an edge between two pre-seeded
//     members was assigned in the spilling partition and removed by
//     clean-up. A pre-seeded member's external degree is therefore its
//     valid degree.
type NEPP struct {
	csr   *graph.CSR
	k     int
	res   *part.Result
	bound int64

	state       []uint8     // per-vertex stHigh|stCore|stSA|stSB bits
	sCur, sNext uint8       // the secondary-set bits standing for S_i, S_{i+1}
	members     []graph.V   // insertion-ordered S_i members (for clean-up/reset)
	nextMembers []graph.V   // S_{i+1} members pre-seeded by spill-over
	heap        *vheap.Heap // low-degree S_i members keyed by external degree

	// cur is the index of the partition currently expanding. Endpoints of
	// edges spilled to p_{cur+1} pre-seed S_{cur+1} (Algorithm 1, line
	// 28), so the next expansion resumes at the spill boundary instead of
	// a cold seed.
	cur int

	seedCursor int // sequential initialization (§3.2.3)

	stats  Stats
	tracer Tracer
}

// NewNEPP prepares a NE++ run over csr writing into res (which may already
// exist so HEP can continue with the streaming phase on the same result).
func NewNEPP(csr *graph.CSR, k int, res *part.Result, tracer Tracer) *NEPP {
	n := csr.N()
	bound := (csr.InMemEdges() + int64(k) - 1) / int64(k)
	state := make([]uint8, n)
	csr.HighSet().Range(func(v uint32) bool {
		state[v] = stHigh
		return true
	})
	return &NEPP{
		csr:    csr,
		k:      k,
		res:    res,
		bound:  bound,
		state:  state,
		sCur:   stSA,
		sNext:  stSB,
		heap:   vheap.New(n),
		tracer: tracer,
		stats: Stats{
			ColEntries: csr.ColLen(),
			H2HEdges:   csr.H2H().Len(),
			InMemBound: bound,
		},
	}
}

// Stats returns the run statistics (valid after Run).
func (p *NEPP) Stats() Stats { return p.stats }

// InCore reports whether v is in the global core set C.
func (p *NEPP) InCore(v graph.V) bool { return p.state[v]&stCore != 0 }

// Run executes the full NE++ partitioning: expansion + clean-up for
// partitions 0..k-2 (Algorithm 1 + Algorithm 2) and the remaining-edge scan
// for the last partition (Algorithm 3).
func (p *NEPP) Run() {
	for i := 0; i < p.k-1; i++ {
		p.cur = i
		exhausted := p.expand(i)
		p.cleanup(i)
		p.advanceSecondary()
		if exhausted {
			break
		}
	}
	p.cur = p.k - 1
	p.assignRemaining(p.k - 1)
}

// expand grows partition i until its capacity bound is reached. It reports
// whether the in-memory graph was exhausted (no seed vertex remains).
func (p *NEPP) expand(i int) bool {
	for p.res.Counts[i] < p.bound {
		var v graph.V
		if p.heap.Len() > 0 {
			v, _ = p.heap.PopMin()
		} else {
			seed, ok := p.nextSeed()
			if !ok {
				return true
			}
			p.stats.Seeds++
			v = seed
		}
		p.moveToCore(v, i)
	}
	return false
}

// nextSeed performs the sequential initialization of §3.2.3: a cursor walks
// the vertex ids once; every skip reason (in core, high-degree, no
// unassigned edges) is permanent, so no vertex is ever revisited.
func (p *NEPP) nextSeed() (graph.V, bool) {
	n := p.csr.N()
	for p.seedCursor < n {
		v := graph.V(p.seedCursor)
		if p.state[v]&(stCore|stHigh) == 0 && p.csr.ValidDegree(v) > 0 {
			return v, true
		}
		p.seedCursor++
	}
	return 0, false
}

// moveToCore implements Algorithm 1, lines 12–15, adapted to the pruned
// graph: high-degree neighbors are pulled into S_i without scanning their
// (nonexistent) adjacency lists, and the connecting edge is assigned here,
// from the low side, with immediate removal (invariant 1 on NEPP).
func (p *NEPP) moveToCore(v graph.V, i int) {
	p.state[v] |= stCore
	p.heap.Remove(v) // no-op unless v was pre-seeded and chosen as seed
	p.stats.CoreDegSum += int64(p.csr.Degree(v))
	p.stats.CoreCount++
	p.touch(v)
	out, in := p.csr.Lists(v)
	nOut := p.coreScan(v, out, false, i)
	nIn := p.coreScan(v, in, true, i)
	p.csr.SetLens(v, nOut, nIn)
}

// coreScan walks one of v's lists for moveToCore and returns its new
// length. in tells which list it is, and so how the edges are oriented.
func (p *NEPP) coreScan(v graph.V, list []graph.V, in bool, i int) int {
	cur := p.sCur
	for idx := 0; idx < len(list); {
		u := list[idx]
		switch s := p.state[u]; {
		case s&stHigh != 0:
			if s&cur == 0 {
				p.state[u] = s | cur
				p.members = append(p.members, u)
			}
			p.assign(v, u, in, i)
			list[idx] = list[len(list)-1]
			list = list[:len(list)-1]
			p.stats.AssignRemoved++
		case s&(stCore|cur) != 0:
			idx++ // edge already assigned when u joined C ∪ S_i
		default:
			p.moveToSecondary(u, i)
			idx++
		}
	}
	return len(list)
}

// moveToSecondary implements Algorithm 1, lines 16–28: it adds a low-degree
// vertex to S_i, assigns its edges toward C ∪ S_i, computes its external
// degree and inserts it into the min-heap. Assigned low↔low entries are left
// in place (lazy removal, §3.2.2); assigned low↔high entries are
// swap-removed immediately to keep "entry present ⇒ unassigned" for high
// neighbors.
func (p *NEPP) moveToSecondary(v graph.V, i int) {
	p.state[v] |= p.sCur
	p.members = append(p.members, v)
	p.touch(v)
	out, in := p.csr.Lists(v)
	nOut, dOut := p.secondaryScan(v, out, false, i)
	nIn, dIn := p.secondaryScan(v, in, true, i)
	p.csr.SetLens(v, nOut, nIn)
	p.heap.Push(v, dOut+dIn)
}

// secondaryScan walks one of v's lists for moveToSecondary. It returns the
// list's new length and the number of its entries leading outside C ∪ S_i.
func (p *NEPP) secondaryScan(v graph.V, list []graph.V, in bool, i int) (int, int32) {
	cur := p.sCur
	var dext int32
	for idx := 0; idx < len(list); {
		u := list[idx]
		switch s := p.state[u]; {
		case s&stHigh != 0:
			if s&cur != 0 {
				p.assign(v, u, in, i)
				list[idx] = list[len(list)-1]
				list = list[:len(list)-1]
				p.stats.AssignRemoved++
			} else {
				dext++
				idx++
			}
		case s&stCore != 0:
			p.assign(v, u, in, i)
			idx++
		case s&cur != 0:
			p.assign(v, u, in, i)
			if p.heap.Contains(u) {
				p.heap.Add(u, -1)
			}
			idx++
		default:
			dext++
			idx++
		}
	}
	return len(list), dext
}

// assign places the edge between v and its list entry u into partition i,
// spilling to following partitions when i is at its capacity bound
// (Algorithm 1, lines 25–28). The edge is (v,u) in input orientation, or
// (u,v) when u came from v's in-list. Endpoints of edges spilled into the
// immediately following partition pre-seed its secondary set, giving the
// next expansion a warm start at the spill boundary; deeper cascades (a
// single expansion step overshooting more than one partition's capacity)
// only set replica bits.
func (p *NEPP) assign(v, u graph.V, in bool, i int) {
	left, right := v, u
	if in {
		left, right = u, v
	}
	target := i
	for p.res.Counts[target] >= p.bound && target+1 < p.k {
		target++
	}
	if target != i {
		p.stats.SpillEdges++
		if target == p.cur+1 && target < p.k-1 {
			p.preseed(left)
			p.preseed(right)
		}
	}
	p.res.Assign(left, right, target)
}

// preseed adds a spilled-edge endpoint to S_{cur+1} (Algorithm 1, line 28).
func (p *NEPP) preseed(v graph.V) {
	if s := p.state[v]; s&p.sNext == 0 {
		p.state[v] = s | p.sNext
		p.nextMembers = append(p.nextMembers, v)
	}
}

// touch reports v's two list spans, at their current lengths, to the
// tracer.
func (p *NEPP) touch(v graph.V) {
	if t := p.tracer; t != nil {
		t.Touch(p.csr.OutSpan(v))
		t.Touch(p.csr.InSpan(v))
	}
}

// cleanup implements Algorithm 2: for every vertex remaining in S_i, remove
// the adjacency entries pointing into C ∪ S_i. Low↔low entries found here
// are already assigned (they were assigned when their second endpoint
// joined); low↔high entries still present are *not* assigned yet — they are
// assigned to p_i now, completing the pruned-graph adaptation.
func (p *NEPP) cleanup(i int) {
	for _, v := range p.members {
		s := p.state[v]
		if s&stHigh != 0 {
			// High-degree vertices always remain in S_i and own no lists.
			p.stats.SecDegSum += int64(p.csr.Degree(v))
			p.stats.SecCount++
			continue
		}
		if s&stCore != 0 {
			// Core lists are never read again (Theorem 3.1); the vertex
			// was counted as a core move already.
			continue
		}
		p.stats.SecDegSum += int64(p.csr.Degree(v))
		p.stats.SecCount++
		p.touch(v)
		out, in := p.csr.Lists(v)
		nOut := p.cleanupScan(v, out, false, i)
		nIn := p.cleanupScan(v, in, true, i)
		p.csr.SetLens(v, nOut, nIn)
	}
}

// cleanupScan walks one of v's lists for cleanup and returns its new
// length. A high-degree vertex is never in C, so an entry pointing into
// C ∪ S_i is either an assigned low↔low edge or an unassigned low↔high one.
func (p *NEPP) cleanupScan(v graph.V, list []graph.V, in bool, i int) int {
	cur := p.sCur
	for idx := 0; idx < len(list); {
		u := list[idx]
		s := p.state[u]
		if s&(stCore|cur) == 0 {
			idx++
			continue
		}
		if s&stHigh != 0 {
			p.assign(v, u, in, i)
			p.stats.CleanupAssigned++
		}
		list[idx] = list[len(list)-1]
		list = list[:len(list)-1]
		p.stats.CleanupRemoved++
	}
	return len(list)
}

// advanceSecondary clears the S_i bit on S_i's members, swaps the roles of
// the two secondary-set bits so the pre-seeded S_{i+1} becomes current, and
// seeds the heap from it. Pre-seeded low-degree members enter the heap with
// external degree equal to their remaining valid degree (invariants 2 and 3
// on NEPP).
func (p *NEPP) advanceSecondary() {
	for _, v := range p.members {
		p.state[v] &^= p.sCur
	}
	p.members = p.members[:0]
	p.heap.Reset()

	p.sCur, p.sNext = p.sNext, p.sCur
	p.members, p.nextMembers = p.nextMembers, p.members
	for _, v := range p.members {
		if p.state[v]&(stCore|stHigh) != 0 {
			continue
		}
		if d := p.csr.ValidDegree(v); d > 0 {
			p.heap.Push(v, d)
		}
	}
}

// assignRemaining implements Algorithm 3: the last partition receives every
// remaining in-memory edge by scanning the adjacency lists of low-degree
// vertices outside the core set. Out-entries are assigned from the
// left-hand endpoint; in-entries only when the neighbor is high-degree
// (low↔low edges are covered exactly once by their left endpoint's
// out-list).
func (p *NEPP) assignRemaining(last int) {
	for vi, s := range p.state {
		if s&(stCore|stHigh) != 0 {
			continue
		}
		v := graph.V(vi)
		p.touch(v)
		out, in := p.csr.Lists(v)
		for _, u := range out {
			p.res.Assign(v, u, last)
		}
		for _, u := range in {
			if p.state[u]&stHigh != 0 {
				p.res.Assign(u, v, last)
			}
		}
	}
}
