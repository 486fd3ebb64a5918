package pstate

import (
	"math/bits"

	"hep/internal/graph"
)

// Buckets groups a set of vertices by hosting partition: Build iterates each
// vertex's replica mask a constant number of times and appends the vertex's
// tag (its index in the input slice) to the bucket of every partition the
// mask covers. It is the candidate-iteration warm start of the out-of-core
// engine — the k-probes-per-batch alternative was one Has probe per vertex
// per region, k full scans of the batch per buffer fill; the bucket index
// answers "which batch vertices are replicated on p" for every p at once in
// O(batch replicas) total work, independent of k.
//
// The bucket pool is bounded: vertices are admitted in input order while
// their replica sets fit the pool, and the rest spill to an overflow list
// the consumer probes per region (rare by construction — the pool is sized
// for replica counts well above the replication factors power-law runs
// produce). The split is deterministic: it depends only on the input order
// and the masks, never on timing.
//
// Build is single-threaded; the built index is immutable and may be read
// concurrently.
type Buckets struct {
	k        int
	heads    []int32 // len k+1; bucket p is pool[heads[p]:heads[p+1]]
	pool     []int32 // vertex tags grouped by partition
	overflow []int32 // tags of vertices whose replica sets did not fit
}

// NewBuckets returns an empty index for k partitions with a pool of at most
// poolCap tag entries and room for ovCap overflow tags. Both caps are hard:
// Build never allocates past them, so callers with strict memory accounting
// (the out-of-core buffer budget) get a stable Bytes. ovCap must cover the
// worst case — every vertex spilling, i.e. the longest slice the caller
// will pass to Build — because a vertex that fits neither the pool nor the
// overflow list would silently vanish from the index; Build panics rather
// than allow that.
func NewBuckets(k, poolCap, ovCap int) *Buckets {
	return &Buckets{
		k:        k,
		heads:    make([]int32, k+1),
		pool:     make([]int32, 0, poolCap),
		overflow: make([]int32, 0, ovCap),
	}
}

// K returns the partition count.
func (b *Buckets) K() int { return b.k }

// Build indexes verts against t: after the call, Bucket(p) lists the indices
// i (ascending) with t.Has(verts[i], p) for every admitted vertex, and
// Overflow lists the indices whose replica sets did not fit the pool. Any
// previous index is discarded. t must have at least k partitions. Each of
// the two passes walks every mask word once.
func (b *Buckets) Build(t *Table, verts []graph.V) {
	for p := range b.heads {
		b.heads[p] = 0
	}
	b.overflow = b.overflow[:0]
	poolCap := cap(b.pool)
	words := t.Words()

	// Pass 1: per-partition counts over the admitted vertices, kept one
	// slot ahead in heads[p+1]. A vertex is admitted while the running
	// total fits the pool; a spilled vertex's counts are taken back.
	tot := 0
	for i, v := range verts {
		c := b.tally(t, v, words, 1)
		if tot+c <= poolCap {
			tot += c
			continue
		}
		b.tally(t, v, words, -1)
		if len(b.overflow) == cap(b.overflow) {
			panic("pstate: Buckets overflow capacity exhausted; size ovCap for the full vertex slice")
		}
		b.overflow = append(b.overflow, int32(i))
	}
	for p := 0; p < b.k; p++ {
		b.heads[p+1] += b.heads[p]
	}
	b.pool = b.pool[:tot]

	// Pass 2: fill, advancing per-partition cursors kept in heads; after the
	// fill heads[p] has advanced to the end of bucket p, i.e. the start of
	// bucket p+1, so one backward shift restores the offsets. Spilled
	// vertices are skipped with a cursor over the ascending overflow list.
	spilled := b.overflow
	for i, v := range verts {
		if len(spilled) > 0 && spilled[0] == int32(i) {
			spilled = spilled[1:]
			continue
		}
		for wi := 0; wi < words; wi++ {
			base := wi << 6
			for w := t.Word(v, wi); w != 0; w &= w - 1 {
				p := base + bits.TrailingZeros64(w)
				b.pool[b.heads[p]] = int32(i)
				b.heads[p]++
			}
		}
	}
	copy(b.heads[1:], b.heads[:b.k])
	b.heads[0] = 0
}

// tally adds d to heads[p+1] for every partition p hosting v and returns
// the number of such partitions.
func (b *Buckets) tally(t *Table, v graph.V, words int, d int32) int {
	c := 0
	for wi := 0; wi < words; wi++ {
		w := t.Word(v, wi)
		c += bits.OnesCount64(w)
		base := wi<<6 + 1
		for ; w != 0; w &= w - 1 {
			b.heads[base+bits.TrailingZeros64(w)] += d
		}
	}
	return c
}

// Bucket returns the admitted vertex tags replicated on partition p, in
// input order. The slice aliases the pool and is valid until the next Build.
func (b *Buckets) Bucket(p int) []int32 { return b.pool[b.heads[p]:b.heads[p+1]] }

// Overflow returns the tags of vertices whose replica sets did not fit the
// pool; consumers probe these per partition with Table.Has. Valid until the
// next Build.
func (b *Buckets) Overflow() []int32 { return b.overflow }

// Bytes returns the backing allocation of the index.
func (b *Buckets) Bytes() int64 {
	return int64(len(b.heads))*4 + int64(cap(b.pool))*4 + int64(cap(b.overflow))*4
}
