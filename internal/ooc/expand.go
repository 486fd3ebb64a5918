package ooc

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"hep/internal/check"
	"hep/internal/obs"
	"hep/internal/part"
	"hep/internal/vheap"
)

// Region expansion: one region at a time, exact unassigned-degree
// bookkeeping (udeg, the active list and heap keys stay in lockstep with
// every assignment), and the candidate-iteration warm start over the batch
// bucket index. It is the only way Buffered places an edge, and its output
// is deterministic.

// expanderState is the region-growing scratch: the membership of the region
// currently being grown, the undo list that clears it, the
// min-external-degree heap driving core moves, and the candidate assembly
// buffer with its position mark. Sized by the batch vertex bound so no
// operation reallocates.
type expanderState struct {
	member  []bool      // region membership of the current region
	touched []int32     // members of the current region (for reset)
	heap    *vheap.Heap // region members keyed by external degree
	cands   []int32     // warm-start candidate assembly buffer
	// mark holds one bit per active-list position, set for the warm-start
	// candidates of the region being seeded and all zero between regions.
	// It is byte-granular, not whole uint64 words, so its charge rounds up
	// by under one byte and fits the per-edge slack at every buffer size.
	mark []byte
}

func newExpanderState(maxV int) *expanderState {
	return &expanderState{
		member:  make([]bool, maxV),
		touched: make([]int32, 0, maxV),
		heap:    vheap.NewWithCap(maxV, maxV),
		cands:   make([]int32, 0, maxV),
		mark:    make([]byte, (maxV+7)/8),
	}
}

// bytes returns the state's allocation, charged against the buffer budget.
func (ex *expanderState) bytes() int64 {
	return int64(cap(ex.member)) + int64(cap(ex.touched))*4 +
		ex.heap.Bytes() + int64(cap(ex.cands))*4 + int64(cap(ex.mark))
}

// clearRegion resets the membership written by the current region.
func (ex *expanderState) clearRegion() {
	for _, v := range ex.touched {
		ex.member[v] = false
	}
	ex.touched = ex.touched[:0]
}

// expand runs the region sweep of one batch: it grows regions, each into
// the least-loaded partition with room and with a quota of
// min(⌈B/k⌉, room) edges, until every batch edge is placed. One region per
// partition usually covers the batch; when capacity clamps quotas, further
// regions place the rest.
//
// The loop ends within len(batch) regions:
//   - capacity is ⌈α·m/k⌉ with 1 ≤ α ≤ k, so k·capacity ≥ m. While an edge
//     is unplaced and the stream has yielded at most the m edges the
//     discovery scan counted, some partition has room, so pickPartition
//     finds one. A stream that yields more is an error.
//   - every quota is at least 1, and a region with quota ≥ 1 over a
//     non-empty active list places at least one edge. Its heap holds the
//     members with unassigned edges; when it is empty every active vertex
//     is a non-member, so there is a seed. The first core move of a heap
//     member joins a neighbour and places their edge.
//
// Under check.Enabled an empty region is an assertion failure, so a change
// that breaks this argument fails the hepcheck build instead of hanging.
func (b *Buffered) expand(st *batchState, res *part.Result, capacity int64) error {
	quotaBase := max((len(st.batch)+res.K-1)/res.K, 1)
	for remaining := len(st.batch); remaining > 0; {
		p := pickPartition(res, capacity)
		if p < 0 {
			return fmt.Errorf("ooc: every partition is at capacity %d with %d batch edges unplaced: the stream yielded more edges than its discovery scan counted",
				capacity, remaining)
		}
		quota := min(int64(quotaBase), capacity-res.Counts[p])
		b.LastStats.Regions++
		placed := b.growRegion(st, res, p, int(quota))
		b.Obs.Counters().Observe(obs.HistRegionEdges, int64(placed))
		if check.Enabled {
			check.Assertf(placed > 0, "expansion region into partition %d (quota %d) placed no edge", p, quota)
		}
		remaining -= placed
	}
	return nil
}

// warmCandidates assembles the warm-start set for partition p in the exact
// order the retired k-probe scan produced: the bucket index (plus overflow
// probes, the only per-region probe cost left) yields every vertex
// replicated on p, each still-active one marks its active-list position, and
// walking the marks in ascending position reproduces the active-scan order
// bit for bit. Positions are distinct, so the walk needs no sort and costs
// O(bucket + |active|/64) per region. A repeat region into a partition
// already expanded this batch cannot use the batch-start index (the earlier
// region added replicas the index predates), so it falls back to the full
// scan — counted by WarmRescans and pinned to zero on the stand-ins.
func (b *Buffered) warmCandidates(st *batchState, res *part.Result, p int) []int32 {
	if b.legacyWarmScan || st.expanded[p] {
		if !b.legacyWarmScan {
			b.LastStats.WarmRescans++
		}
		return b.scanWarmCandidates(st, res, p)
	}
	ex := st.ex
	for _, v := range st.buckets.Bucket(p) {
		ex.markActive(st.activePos[v])
	}
	for _, v := range st.buckets.Overflow() {
		b.LastStats.WarmScanProbes++
		if res.Reps.Has(st.verts[v], p) {
			ex.markActive(st.activePos[v])
		}
	}
	return ex.takeMarked(st.active)
}

// markActive marks active-list position pos; an exhausted vertex (pos -1)
// is not a candidate.
func (ex *expanderState) markActive(pos int32) {
	if pos >= 0 {
		ex.mark[pos>>3] |= 1 << (pos & 7)
	}
}

// takeMarked returns the active vertices whose positions are marked, in
// ascending position, and clears the marks. It reads the mark 64 positions
// at a time; only the last, partial word is assembled byte by byte.
func (ex *expanderState) takeMarked(active []int32) []int32 {
	cands := ex.cands[:0]
	mark := ex.mark[:(len(active)+7)/8]
	for i := 0; i < len(mark); i += 8 {
		chunk := mark[i:min(i+8, len(mark))]
		var w uint64
		if len(chunk) == 8 {
			w = binary.LittleEndian.Uint64(chunk)
		} else {
			for j, c := range chunk {
				w |= uint64(c) << (8 * j)
			}
		}
		if w == 0 {
			continue
		}
		clear(chunk)
		for base := 8 * i; w != 0; w &= w - 1 {
			cands = append(cands, active[base+bits.TrailingZeros64(w)])
		}
	}
	ex.cands = cands[:0]
	return cands
}

// scanWarmCandidates is the retired warm start, verbatim: one replica probe
// per active batch vertex per region. It survives only as the repeat-region
// escape hatch and as the reference the equivalence tests pin the candidate
// iteration against (legacyWarmScan).
func (b *Buffered) scanWarmCandidates(st *batchState, res *part.Result, p int) []int32 {
	out := st.ex.cands[:0]
	for _, v := range st.active {
		if res.Reps.Has(st.verts[v], p) {
			out = append(out, v)
		}
	}
	b.LastStats.WarmScanProbes += int64(len(st.active))
	st.ex.cands = out[:0]
	return out
}

// growRegion grows one NE-style expansion region into partition p: the
// region's member set is extended one vertex at a time, only edges with both
// endpoints in the region are assigned, and the next core vertex is always
// the member with the fewest unassigned external edges. It returns the
// number of edges placed, never more than quota (which the caller clamps to
// the partition's remaining capacity).
func (b *Buffered) growRegion(st *batchState, res *part.Result, p, quota int) int {
	placed := 0
	ex := st.ex
	ex.heap.Reset()
	ex.touched = ex.touched[:0]

	// Informed warm start — the buffered analog of NE++'s spill-over
	// pre-seeding: every batch vertex already replicated on p joins the
	// region up front, so edges between two p-replicated vertices are
	// assigned to p at zero replication cost and the expansion continues
	// p's existing territory instead of opening a new one.
	for _, v := range b.warmCandidates(st, res, p) {
		if placed >= quota {
			break
		}
		if st.udeg[v] > 0 && !ex.member[v] {
			b.join(st, res, v, p, &placed, quota)
		}
	}
	st.expanded[p] = true

	for placed < quota {
		if ex.heap.Len() == 0 {
			seed := st.pickSeed(res, p)
			if seed < 0 {
				break
			}
			b.join(st, res, seed, p, &placed, quota)
			continue
		}
		v, _ := ex.heap.PopMin()
		// Core move: pull v's outside neighbors into the region; their
		// joins assign the connecting edges (and any other edges they
		// close with existing members).
		start := st.start(int32(v))
		for i := start; i < st.off[v] && placed < quota; i++ {
			e := st.adjE[i]
			if st.assigned[e] {
				continue
			}
			if u := st.adjV[i]; !ex.member[u] {
				b.join(st, res, u, p, &placed, quota)
			}
		}
	}
	ex.clearRegion()
	return placed
}

// join adds local vertex x to the current region: every unassigned edge
// between x and an existing member is assigned to p, and x enters the heap
// keyed by its remaining (external) unassigned degree.
func (b *Buffered) join(st *batchState, res *part.Result, x int32, p int, placed *int, quota int) {
	ex := st.ex
	ex.member[x] = true
	ex.touched = append(ex.touched, x)
	for i := st.start(x); i < st.off[x]; i++ {
		e := st.adjE[i]
		if st.assigned[e] || !ex.member[st.adjV[i]] {
			continue
		}
		if *placed >= quota {
			break
		}
		res.Assign(st.batch[e].U, st.batch[e].V, p)
		st.assigned[e] = true
		*placed++
		b.LastStats.ExpansionEdges++
		st.decUnassigned(x)
		st.decUnassigned(st.adjV[i])
	}
	if st.udeg[x] > 0 && !ex.heap.Contains(uint32(x)) {
		ex.heap.Push(uint32(x), st.udeg[x])
	}
}

// decUnassigned decrements v's unassigned-edge count, keeping the heap key
// in sync and removing v from the active list when it is exhausted.
func (st *batchState) decUnassigned(v int32) {
	st.udeg[v]--
	if ex := st.ex; ex.heap.Contains(uint32(v)) {
		if st.udeg[v] > 0 {
			ex.heap.Add(uint32(v), -1)
		} else {
			ex.heap.Remove(uint32(v))
		}
	}
	if st.udeg[v] > 0 {
		return
	}
	pos := st.activePos[v]
	last := int32(len(st.active) - 1)
	moved := st.active[last]
	st.active[pos] = moved
	st.activePos[moved] = pos
	st.active = st.active[:last]
	st.activePos[v] = -1
}

// seedScanLimit bounds the affinity scan of the active list per seed choice.
const seedScanLimit = 64

// pickSeed selects the next expansion seed for partition p: among a bounded
// prefix of the active list it prefers a non-member vertex already
// replicated on p (stitching the batch onto the global replica state),
// breaking ties toward the fewest unassigned edges; with no replica hit it
// falls back to the scanned vertex with minimum unassigned degree (the
// NE-style low-degree seed). Returns -1 when no unassigned vertex remains.
func (st *batchState) pickSeed(res *part.Result, p int) int32 {
	limit := len(st.active)
	if limit > seedScanLimit {
		limit = seedScanLimit
	}
	bestHit, bestAny := int32(-1), int32(-1)
	for i := 0; i < limit; i++ {
		v := st.active[i]
		if st.ex.member[v] {
			continue
		}
		if res.Reps.Has(st.verts[v], p) {
			if bestHit < 0 || st.udeg[v] < st.udeg[bestHit] {
				bestHit = v
			}
			continue
		}
		if bestAny < 0 || st.udeg[v] < st.udeg[bestAny] {
			bestAny = v
		}
	}
	if bestHit >= 0 {
		return bestHit
	}
	return bestAny
}
