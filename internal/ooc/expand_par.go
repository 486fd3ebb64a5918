package ooc

import (
	"runtime"
	"sync"

	"hep/internal/obs"
	"hep/internal/part"
)

// The concurrent expanders: W goroutines each grow a region into a distinct
// partition over the shared batch mini-CSR, claiming edges with one CAS per
// edge on the batch claim array — the discipline of internal/dne's shared
// edge pool applied to a batch-resident structure. Replica bits go through
// the CAS-backed shard.AtomicTable the batch transplants its table into;
// load deltas accumulate in per-worker shard lanes and fold at region
// boundaries, so every region grant sees capacity through counts that
// include all finished regions. Unassigned-degree bookkeeping follows the
// claim array: a member's heap key counts its unclaimed incident edges,
// decremented for every claim this expander observes and lazily revalidated
// at pop time for the claims it does not — a stale key costs a cheap
// recount, never a wrong assignment, because claims are rechecked at use.
//
// What concurrency costs: which edges expansion covers (and therefore the
// expansion/fallback split and the sink's expansion order, which becomes
// batch order) depends on worker interleaving, the Workers > 1
// nondeterminism contract. What it preserves: exactly-once assignment
// (CAS), the capacity bound (clamped quotas against folded counts), and —
// pinned by the equivalence suite — replication factor and balance within
// 2% of the sequential expander.

// defaultParallelExpandMin is the batch size below which sequential region
// growing beats spinning up expander goroutines.
const defaultParallelExpandMin = 1 << 14

// seedStepLimit caps how many positions past the cursor one seed choice may
// examine (the cursor-advancing dead prefix is exempt — it is paid once per
// batch). The window stops at seedScanLimit live candidates; this bounds
// the dead positions it may wade through to find them.
const seedStepLimit = 8 * seedScanLimit

// expandWorkers resolves how many expander goroutines a batch of batchLen
// edges gets: 1 unless Workers > 1 and the batch is worth fanning out.
func (b *Buffered) expandWorkers(batchLen, k int) int {
	w := b.Workers
	if w <= 1 {
		return 1
	}
	min := b.ParallelExpandMin
	if min <= 0 {
		min = defaultParallelExpandMin
	}
	if batchLen < min {
		return 1
	}
	if w > k {
		w = k
	}
	return w
}

// expandParallel is the concurrent expansion phase of one batch. It returns
// the number of edges the expanders left unclaimed (the fallback's share)
// or the first worker error, in which case the batch is aborted mid-flight
// and the result is unusable.
func (b *Buffered) expandParallel(st *batchState, res *part.Result, capacity int64, workers int) (int, error) {
	nb := len(st.batch)
	st.ensureExpanders(workers)
	st.claims.Reset(nb)
	quotaBase := int64((nb + res.K - 1) / res.K)
	if quotaBase < 1 {
		quotaBase = 1
	}

	sh := res.Shared(workers).SetObs(b.Obs.Counters())
	plan := newExpandPlan(sh.Loads, res.K, capacity, quotaBase, int64(nb))

	// Every worker claims its first partition before any region grows, so a
	// batch with at least two admissible partitions always exercises at
	// least two concurrent expanders — the property PeakExpanders reports.
	var barrier, wg sync.WaitGroup
	barrier.Add(workers)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			ex := st.expanders[w]
			// Stride the seed origins across the vertex space (the distinct
			// random seeds of DNE, deterministic form): expanders that all
			// seed from the same corner of the batch graph grow into each
			// other, which is pure replication-factor loss.
			ex.seedBase = int32(w * len(st.verts) / workers)
			ex.seedCur = 0
			p, quota, repeat, ok := plan.next(w, -1)
			barrier.Done()
			barrier.Wait()
			for ok {
				if b.expandFault != nil {
					if err := b.expandFault(w); err != nil {
						plan.fail(err)
					}
				}
				if plan.stop.Load() {
					plan.release(w, p)
					return
				}
				placed := b.growRegionConcurrent(st, ex, sh, plan, w, p, quota, repeat)
				b.Obs.Counters().Observe(w, obs.HistRegionEdges, int64(placed))
				if placed == 0 {
					plan.release(w, p)
					return // seeds exhausted: the batch has nothing left to grow
				}
				// Yield between regions so expanders interleave at region
				// granularity even when cores are scarce: without it one
				// expander can monopolize a core while the partitions its
				// peers hold sit excluded from granting until the batch is
				// nearly exhausted — pure quality loss, no throughput win.
				runtime.Gosched()
				p, quota, repeat, ok = plan.next(w, p)
			}
		}(w)
	}
	wg.Wait()

	b.LastStats.Regions += int64(plan.regions)
	b.LastStats.WarmScanProbes += plan.probes.Load()
	b.LastStats.WarmRescans += plan.rescans.Load()
	b.LastStats.ParallelBatches++
	if plan.peak > b.LastStats.PeakExpanders {
		b.LastStats.PeakExpanders = plan.peak
	}
	sh.Finish()
	if plan.err != nil {
		return 0, plan.err
	}

	// Delivery sweep: the workers applied replica bits and load counts at
	// claim time; the sweep applies the rest of an assignment — edge count
	// and sink — in batch order, the deterministic-order guarantee the
	// parallel fallback already gives.
	placed := 0
	for i := range st.batch {
		if p := st.claims.Owner(i); p >= 0 {
			st.assigned[i] = true
			sh.Deliver(st.batch[i].U, st.batch[i].V, int(p))
			placed++
		}
	}
	b.LastStats.ExpansionEdges += int64(placed)
	return nb - placed, nil
}

// growRegionConcurrent grows one region into partition p against the shared
// claim array. Structure mirrors the sequential growRegion; membership and
// the heap are worker-private, every edge acquisition is a CAS. repeat means
// p already had a region this batch: its replicas in the live table postdate
// the batch-start bucket index, so the warm start rescans instead of reading
// stale buckets (the concurrent analog of seqWarmCandidates' rescan path).
func (b *Buffered) growRegionConcurrent(st *batchState, ex *expanderState, sh *part.Shared, plan *expandPlan, w, p int, quota int64, repeat bool) int {
	var placed int64
	ex.heap.Reset()
	ex.touched = ex.touched[:0]

	var cands []int32
	var probes int64
	if repeat && !b.legacyRepeatWarm {
		cands, probes = st.warmRescan(ex.cands[:0], sh.Table, p)
		plan.rescans.Add(1)
	} else {
		cands, probes = st.warmInto(ex.cands[:0], sh.Table, p)
	}
	plan.probes.Add(probes)
	for _, v := range cands {
		if placed >= quota || plan.stop.Load() {
			break
		}
		if !ex.member[v] {
			b.joinConcurrent(st, ex, sh, w, p, v, &placed, quota)
		}
	}
	ex.cands = cands[:0]

	for placed < quota && !plan.stop.Load() {
		if ex.heap.Len() == 0 {
			seed := st.nextSeed(ex, sh.Table, p)
			if seed < 0 {
				break
			}
			b.joinConcurrent(st, ex, sh, w, p, seed, &placed, quota)
			continue
		}
		// Lazy revalidation: keys go stale as other expanders claim edges
		// (they only overestimate — claims never release), so refresh the
		// popped key and requeue when a fresher minimum is waiting. This
		// keeps the core-move order close to the exact min-external-degree
		// discipline the sequential expander maintains incrementally.
		v, key := ex.heap.PopMin()
		if cur := st.unclaimedDeg(int32(v)); cur < key && ex.heap.Len() > 0 {
			if _, nk := ex.heap.Min(); cur > nk {
				ex.heap.Push(v, cur)
				continue
			}
		}
		start := st.start(int32(v))
		for i := start; i < st.off[v] && placed < quota; i++ {
			if st.claims.Claimed(int(st.adjE[i])) {
				continue
			}
			if u := st.adjV[i]; !ex.member[u] {
				b.joinConcurrent(st, ex, sh, w, p, u, &placed, quota)
			}
		}
	}
	ex.clearRegion()
	plan.claimed.Add(placed)
	return int(placed)
}

// joinConcurrent adds local vertex x to worker w's region: every unclaimed
// edge between x and an existing member is claimed for p with a CAS (losing
// a race simply skips the edge — the winner owns it), and x enters the heap
// keyed by its unclaimed external degree as of now (stale thereafter).
func (b *Buffered) joinConcurrent(st *batchState, ex *expanderState, sh *part.Shared, w, p int, x int32, placed *int64, quota int64) {
	ex.member[x] = true
	ex.touched = append(ex.touched, x)
	var dext int32
	for i := st.start(x); i < st.off[x]; i++ {
		e := int(st.adjE[i])
		if st.claims.Claimed(e) {
			continue
		}
		m := st.adjV[i]
		if !ex.member[m] || *placed >= quota {
			// Unclaimed edges x cannot take now — external ones, and member
			// edges the quota cut — stay in x's key, matching the
			// unassigned-degree keys of the sequential expander.
			dext++
			continue
		}
		if st.claims.TryClaim(e, int32(p)) {
			ed := st.batch[e]
			sh.Table.Add(ed.U, p)
			sh.Table.Add(ed.V, p)
			sh.Loads.Inc(w, p)
			*placed++
		}
		// The edge is claimed now (by us, or by the racer who beat the CAS):
		// drop it from the member's key, the mirror of the sequential
		// decUnassigned. Keys only go stale through claims this expander
		// never observes; the pop-time revalidation covers those.
		if ex.heap.Contains(uint32(m)) {
			if ex.heap.Key(uint32(m)) > 1 {
				ex.heap.Add(uint32(m), -1)
			} else {
				ex.heap.Remove(uint32(m))
			}
		}
	}
	if dext > 0 && !ex.heap.Contains(uint32(x)) {
		ex.heap.Push(uint32(x), dext)
	}
}

// unclaimedDeg counts v's unclaimed incident edges — the concurrent analog
// of the sequential udeg, recomputed from the claim array on demand instead
// of maintained by decrements.
func (st *batchState) unclaimedDeg(v int32) int32 {
	var c int32
	for i := st.start(v); i < st.off[v]; i++ {
		if !st.claims.Claimed(int(st.adjE[i])) {
			c++
		}
	}
	return c
}

// nextSeed selects the next expansion seed like the sequential pickSeed: it
// scans a bounded window of live vertices (unclaimed incident edges, not in
// the current region), preferring one already replicated on p with the
// fewest unclaimed edges, else the scanned minimum. The scan starts at the
// expander's strided origin; the cursor advances monotonically past the
// leading run of dead positions — exhausted vertices AND current-region
// members, which therefore lose seed-candidacy for this expander once
// passed (their leftover edges go to the fallback, exactly like the
// sequential seed limit's). That keeps the whole batch's dead scanning at
// O(vertices + adjacency) per expander: without the member hop, one
// low-degree region could pin the cursor and make every seed choice rescan
// the processed prefix.
func (st *batchState) nextSeed(ex *expanderState, reps replicaHas, p int) int32 {
	nv := int32(len(st.verts))
	at := func(s int32) int32 {
		v := ex.seedBase + s
		if v >= nv {
			v -= nv
		}
		return v
	}
	scanned, steps := 0, 0
	bestHit, bestAny := int32(-1), int32(-1)
	var hitDeg, anyDeg int32
	advance := true
	for s := ex.seedCur; s < nv && scanned < seedScanLimit && steps < seedStepLimit; s++ {
		v := at(s)
		live := !ex.member[v]
		var ud int32
		if live {
			ud = st.unclaimedDeg(v)
			live = ud > 0
		}
		if advance {
			if live {
				advance = false
			} else {
				// The leading dead run is exempt from the step cap: the
				// cursor moves past it permanently, so its total cost across
				// all seed calls is one pass over the vertex range.
				ex.seedCur = s + 1
				continue
			}
		}
		// Positions behind a live-but-unchosen vertex are re-examined on
		// later calls (the cursor cannot pass a live candidate), so they
		// are capped: a dead-dense window returns the best seed found so
		// far rather than paying O(nv) adjacency recounts per call.
		steps++
		if !live {
			continue
		}
		scanned++
		if reps.Has(st.verts[v], p) {
			if bestHit < 0 || ud < hitDeg {
				bestHit, hitDeg = v, ud
			}
			continue
		}
		if bestAny < 0 || ud < anyDeg {
			bestAny, anyDeg = v, ud
		}
	}
	if bestHit >= 0 {
		return bestHit
	}
	return bestAny
}
