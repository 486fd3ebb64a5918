package pstate

import "hep/internal/graph"

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
// previous index is discarded. t must have at least k partitions.
func (b *Buckets) Build(t *Table, verts []graph.V) {
	for p := range b.heads {
		b.heads[p] = 0
	}
	b.overflow = b.overflow[:0]
	poolCap := cap(b.pool)

	// Pass 1: per-partition counts over the admitted vertices. Admission is
	// by running total against the pool cap, recomputed identically in pass
	// 2, so the two passes agree without a per-vertex marker.
	tot := 0
	for i := range verts {
		c := t.Count(verts[i])
		if c == 0 {
			continue
		}
		if tot+c > poolCap {
			if len(b.overflow) == cap(b.overflow) {
				panic("pstate: Buckets overflow capacity exhausted; size ovCap for the full vertex slice")
			}
			b.overflow = append(b.overflow, int32(i))
			continue
		}
		tot += c
		t.RangeVertex(verts[i], func(p int) bool {
			b.heads[p+1]++
			return true
		})
	}
	for p := 0; p < b.k; p++ {
		b.heads[p+1] += b.heads[p]
	}
	b.pool = b.pool[:tot]

	// Pass 2: fill, advancing per-partition cursors kept in heads; after the
	// fill heads[p] has advanced to the end of bucket p, i.e. the start of
	// bucket p+1, so one backward shift restores the offsets.
	tot = 0
	for i := range verts {
		c := t.Count(verts[i])
		if c == 0 || tot+c > poolCap {
			continue
		}
		tot += c
		t.RangeVertex(verts[i], func(p int) bool {
			b.pool[b.heads[p]] = int32(i)
			b.heads[p]++
			return true
		})
	}
	copy(b.heads[1:], b.heads[:b.k])
	b.heads[0] = 0
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
