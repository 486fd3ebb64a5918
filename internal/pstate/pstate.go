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
// Layout and the memory trade: the masks are one flat slice of
// n·⌈k/64⌉ words, allocated in full by NewTable, so the table holds
// TableBytes(n, k) from the start — the partition-major k·n/8 at word
// granularity. For k < 64 a mask word costs MORE than partition-major
// (2× at k=32); the win there is purely the per-edge mask-word iteration.
package pstate

import (
	"math/bits"

	"hep/internal/graph"
)

// Table is the vertex-major replica table for a graph with n vertices and k
// partitions. The zero value is unusable; use NewTable.
//
// Reads (Has, Word, Count, RangeVertex) are safe for concurrent use while
// no goroutine mutates the table — refinement's scan workers share one
// table this way. Add and Remove are not; every partitioner in the
// repository mutates its Table from a single goroutine.
type Table struct {
	n, k  int
	w     int      // mask words per vertex: ⌈k/64⌉, at least 1
	words []uint64 // vertex v's mask is words[v·w : (v+1)·w]

	vcount  []int64 // |V(p_i)|: vertices with bit p set, per partition
	covered int64   // vertices with ≥1 bit set, maintained in Add/Remove
}

// NewTable returns an empty table for n vertices and k partitions.
func NewTable(n, k int) *Table {
	if n < 0 {
		n = 0
	}
	w := maskWords(k)
	return &Table{
		n:      n,
		k:      k,
		w:      w,
		words:  make([]uint64, n*w),
		vcount: make([]int64, k),
	}
}

// maskWords is ⌈k/64⌉, at least 1.
func maskWords(k int) int {
	return max((k+63)/64, 1)
}

// N returns the vertex-domain size.
func (t *Table) N() int { return t.n }

// K returns the partition count.
func (t *Table) K() int { return t.k }

// Words returns ⌈k/64⌉, the number of mask words per vertex.
func (t *Table) Words() int { return t.w }

// mask returns the mask words of v.
func (t *Table) mask(v graph.V) []uint64 {
	i := int(v) * t.w
	return t.words[i : i+t.w]
}

// Has reports whether vertex v is replicated on partition p.
func (t *Table) Has(v graph.V, p int) bool {
	return t.words[int(v)*t.w+p>>6]>>(uint(p)&63)&1 != 0
}

// Add marks vertex v replicated on partition p, reporting whether the bit
// was newly set. Per-partition vertex counts are maintained here.
func (t *Table) Add(v graph.V, p int) bool {
	w, b := &t.words[int(v)*t.w+p>>6], uint64(1)<<(uint(p)&63)
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
// covered count drop only on a real clear.
func (t *Table) Remove(v graph.V, p int) bool {
	w, b := &t.words[int(v)*t.w+p>>6], uint64(1)<<(uint(p)&63)
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
	for _, w := range t.mask(v) {
		if w != 0 {
			return false
		}
	}
	return true
}

// Word returns mask word wi (partitions 64·wi .. 64·wi+63) of vertex v.
func (t *Table) Word(v graph.V, wi int) uint64 {
	return t.words[int(v)*t.w+wi]
}

// Count returns the number of partitions vertex v is replicated on.
func (t *Table) Count(v graph.V) int {
	c := 0
	for _, w := range t.mask(v) {
		c += bits.OnesCount64(w)
	}
	return c
}

// RangeVertex calls fn for every partition hosting v, in ascending order,
// stopping early if fn returns false.
func (t *Table) RangeVertex(v graph.V, fn func(p int) bool) {
	for wi, w := range t.mask(v) {
		for w != 0 {
			if !fn(wi<<6 + bits.TrailingZeros64(w)) {
				return
			}
			w &= w - 1
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
// partition, maintained incrementally in Add and Remove. Together with
// TotalReplicas it gives an O(k) replication factor.
func (t *Table) Covered() int64 { return t.covered }

// TotalAndCovered returns Σ_v |mask(v)| (total replicas) and the number of
// vertices replicated on at least one partition — the two quantities the
// replication factor derives from: TotalReplicas and Covered, which Add and
// Remove keep exact.
func (t *Table) TotalAndCovered() (total int64, covered int) {
	return t.TotalReplicas(), int(t.covered)
}

// ReplicaCounts returns, per vertex, the number of partitions covering it.
func (t *Table) ReplicaCounts() []int32 {
	out := make([]int32, t.n)
	for v := range out {
		out[v] = int32(t.Count(graph.V(v)))
	}
	return out
}

// Bytes returns the resident footprint of the table's payload: the mask
// words and the per-partition counts. It always equals TableBytes(N(), K()).
func (t *Table) Bytes() int64 {
	return int64(len(t.words))*8 + int64(len(t.vcount))*8
}

// TableBytes is the resident footprint of a Table over n vertices and k
// partitions: n·8·⌈k/64⌉ bytes of mask words plus 8·k of per-partition
// counts. The §4.2 memory model charges exactly these bytes.
func TableBytes(n, k int) int64 {
	return int64(n)*8*int64(maskWords(k)) + int64(k)*8
}
