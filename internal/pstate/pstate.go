// Package pstate holds the vertex-major partition state every partitioner
// in the repository shares: a replica Table mapping each vertex to the set
// of partitions it is replicated on, and a Loads tracker maintaining
// per-partition edge counts together with their max/min incrementally.
//
// The Table stores one k-bit partition mask per vertex — the transpose of
// the partition-major `k bitsets of n bits` layout. The transpose is what
// makes streaming scoring fast on power-law graphs: the HDRF/Greedy/ADWISE
// inner loop only needs the partitions where one of the edge's endpoints is
// already replicated, and the endpoints' masks hand that set over in
// ⌈k/64⌉ word reads each (Word) instead of k bitset probes. HDRF then
// scores only the least-loaded partition of each replica class (see
// internal/stream). It is the layout the
// scaled-up buffered streaming systems keep resident (Chhabra et al.,
// "Buffered Streaming Edge Partitioning"; "Partitioning Trillion Edge
// Graphs on Edge Devices").
//
// Layout and the memory trade: partitions 0..63 of every vertex live in one
// dense uint64 word — 8·n bytes regardless of k, so for k < 64 the dense
// word costs MORE than the partition-major k·n/8 (2× at k=32); the win
// there is purely the per-edge mask-word iteration. For k > 64 the
// remaining partitions live in overflow pages — fixed ranges of
// PageVertices vertices, each page allocated lazily on the first write of
// an overflow bit in its range — so the worst case matches partition-major
// at word granularity while the resident overflow grows only with the
// vertex ranges that actually replicate past partition 63.
package pstate

import (
	"math/bits"

	"hep/internal/graph"
)

// PageVertices is the number of vertices covered by one overflow page.
const PageVertices = 1 << pageShift

const pageShift = 12

// Table is the vertex-major replica table for a graph with n vertices and k
// partitions. The zero value is unusable; use NewTable.
//
// Reads (Has, Word, Count, RangeVertex) are safe for concurrent use while
// no goroutine mutates the table — refinement's scan workers share one
// table this way. Add and Remove are not; every partitioner in the
// repository mutates its Table from a single goroutine.
type Table struct {
	n, k  int
	extra int      // overflow words per vertex: ⌈k/64⌉ − 1
	dense []uint64 // mask word 0 (partitions 0..63) per vertex

	// pages[v/PageVertices] holds the overflow words (partitions 64..k-1)
	// of vertices [v̄·PageVertices, (v̄+1)·PageVertices), extra words per
	// vertex, allocated on first overflow write in the range.
	pages [][]uint64

	vcount  []int64 // |V(p_i)|: vertices with bit p set, per partition
	covered int64   // vertices with ≥1 bit set, maintained in Add/Remove
}

// NewTable returns an empty table for n vertices and k partitions.
func NewTable(n, k int) *Table {
	if n < 0 {
		n = 0
	}
	words := (k + 63) / 64
	if words < 1 {
		words = 1
	}
	t := &Table{
		n:      n,
		k:      k,
		extra:  words - 1,
		dense:  make([]uint64, n),
		vcount: make([]int64, k),
	}
	if t.extra > 0 {
		t.pages = make([][]uint64, (n+PageVertices-1)/PageVertices)
	}
	return t
}

// N returns the vertex-domain size.
func (t *Table) N() int { return t.n }

// K returns the partition count.
func (t *Table) K() int { return t.k }

// Words returns ⌈k/64⌉, the number of mask words per vertex.
func (t *Table) Words() int { return t.extra + 1 }

// page returns the overflow words of v, or nil when its page is unallocated.
func (t *Table) page(v graph.V) []uint64 {
	pg := t.pages[int(v)>>pageShift]
	if pg == nil {
		return nil
	}
	base := (int(v) & (PageVertices - 1)) * t.extra
	return pg[base : base+t.extra]
}

// ensurePage returns the overflow words of v, allocating the page on demand.
func (t *Table) ensurePage(v graph.V) []uint64 {
	pi := int(v) >> pageShift
	pg := t.pages[pi]
	if pg == nil {
		span := PageVertices
		if lo := pi * PageVertices; t.n-lo < span {
			span = t.n - lo
		}
		pg = make([]uint64, span*t.extra)
		t.pages[pi] = pg
	}
	base := (int(v) & (PageVertices - 1)) * t.extra
	return pg[base : base+t.extra]
}

// Has reports whether vertex v is replicated on partition p.
func (t *Table) Has(v graph.V, p int) bool {
	if p < 64 {
		return t.dense[v]>>(uint(p)&63)&1 != 0
	}
	ov := t.page(v)
	if ov == nil {
		return false
	}
	q := p - 64
	return ov[q>>6]>>(uint(q)&63)&1 != 0
}

// Add marks vertex v replicated on partition p, reporting whether the bit
// was newly set. Per-partition vertex counts are maintained here.
func (t *Table) Add(v graph.V, p int) bool {
	var w *uint64
	var b uint64
	if p < 64 {
		w, b = &t.dense[v], 1<<(uint(p)&63)
	} else {
		ov := t.ensurePage(v)
		q := p - 64
		w, b = &ov[q>>6], 1<<(uint(q)&63)
	}
	if *w&b != 0 {
		return false
	}
	if t.empty(v) {
		t.covered++
	}
	*w |= b
	t.vcount[p]++
	return true
}

// Remove clears vertex v's replica bit on partition p, reporting whether the
// bit was set — the inverse of Add. The per-partition vertex count and the
// covered count drop only on a real clear; a bit on an unallocated overflow
// page is absent, and the page stays unallocated.
func (t *Table) Remove(v graph.V, p int) bool {
	var w *uint64
	var b uint64
	if p < 64 {
		w, b = &t.dense[v], 1<<(uint(p)&63)
	} else {
		ov := t.page(v)
		if ov == nil {
			return false
		}
		q := p - 64
		w, b = &ov[q>>6], 1<<(uint(q)&63)
	}
	if *w&b == 0 {
		return false
	}
	*w &^= b
	t.vcount[p]--
	if t.empty(v) {
		t.covered--
	}
	return true
}

// empty reports whether vertex v has no replica bit in any mask word.
func (t *Table) empty(v graph.V) bool {
	if t.dense[v] != 0 {
		return false
	}
	if t.extra > 0 {
		for _, w := range t.page(v) {
			if w != 0 {
				return false
			}
		}
	}
	return true
}

// Word returns mask word wi (partitions 64·wi .. 64·wi+63) of vertex v.
func (t *Table) Word(v graph.V, wi int) uint64 {
	if wi == 0 {
		return t.dense[v]
	}
	ov := t.page(v)
	if ov == nil {
		return 0
	}
	return ov[wi-1]
}

// Count returns the number of partitions vertex v is replicated on.
func (t *Table) Count(v graph.V) int {
	c := bits.OnesCount64(t.dense[v])
	if t.extra > 0 {
		for _, w := range t.page(v) {
			c += bits.OnesCount64(w)
		}
	}
	return c
}

// RangeVertex calls fn for every partition hosting v, in ascending order,
// stopping early if fn returns false.
func (t *Table) RangeVertex(v graph.V, fn func(p int) bool) {
	w := t.dense[v]
	for w != 0 {
		p := bits.TrailingZeros64(w)
		if !fn(p) {
			return
		}
		w &= w - 1
	}
	if t.extra == 0 {
		return
	}
	for wi, ow := range t.page(v) {
		for ow != 0 {
			p := 64 + wi<<6 + bits.TrailingZeros64(ow)
			if !fn(p) {
				return
			}
			ow &= ow - 1
		}
	}
}

// VertexCounts returns |V(p_i)| per partition (a copy).
func (t *Table) VertexCounts() []int {
	out := make([]int, t.k)
	for p, c := range t.vcount {
		out[p] = int(c)
	}
	return out
}

// VertexCount returns |V(p)| for one partition.
func (t *Table) VertexCount(p int) int64 { return t.vcount[p] }

// TotalReplicas returns Σ_v |mask(v)| — the running replica total, an O(k)
// sum of the per-partition vertex counts. Cheap enough for per-batch quality
// sampling.
func (t *Table) TotalReplicas() int64 {
	var total int64
	for _, c := range t.vcount {
		total += c
	}
	return total
}

// Covered returns the running number of vertices replicated on at least one
// partition, maintained incrementally in Add and Remove. Together with TotalReplicas it
// gives an O(k) running replication factor; the exact end-of-run metrics
// still use the TotalAndCovered scan.
func (t *Table) Covered() int64 { return t.covered }

// TotalAndCovered returns Σ_v |mask(v)| (total replicas) and the number of
// vertices replicated on at least one partition — the two quantities the
// replication factor derives from. One O(n·⌈k/64⌉) scan; a cold-path call.
func (t *Table) TotalAndCovered() (total int64, covered int) {
	for _, c := range t.vcount {
		total += c
	}
	if t.extra == 0 {
		for _, w := range t.dense {
			if w != 0 {
				covered++
			}
		}
		return total, covered
	}
	for v := range t.dense {
		if t.dense[v] != 0 {
			covered++
			continue
		}
		for _, w := range t.page(graph.V(v)) {
			if w != 0 {
				covered++
				break
			}
		}
	}
	return total, covered
}

// ReplicaCounts returns, per vertex, the number of partitions covering it.
func (t *Table) ReplicaCounts() []int32 {
	out := make([]int32, t.n)
	for v := range out {
		out[v] = int32(t.Count(graph.V(v)))
	}
	return out
}

// Bytes returns the resident footprint of the table's payload: the dense
// words, every allocated overflow page, and the per-partition counts.
func (t *Table) Bytes() int64 {
	b := int64(len(t.dense))*8 + int64(len(t.vcount))*8
	for _, pg := range t.pages {
		b += int64(len(pg)) * 8
	}
	return b
}

// PagesAllocated returns how many overflow pages have been materialized
// (diagnostics for the k > 64 paged layout).
func (t *Table) PagesAllocated() int {
	n := 0
	for _, pg := range t.pages {
		if pg != nil {
			n++
		}
	}
	return n
}

// MaxTableBytes is the worst-case resident footprint of a Table over n
// vertices and k partitions — every overflow page allocated: n·8·⌈k/64⌉
// bytes of mask words plus 8·k of per-partition counts. The §4.2 memory
// model charges this bound so a budget-fit configuration can never
// overshoot, even though power-law runs typically stay near n·8.
func MaxTableBytes(n, k int) int64 {
	words := int64((k + 63) / 64)
	if words < 1 {
		words = 1
	}
	return int64(n)*8*words + int64(k)*8
}
