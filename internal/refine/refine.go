// Package refine is the post-pass local-search refinement stage: it takes a
// finalized k-way edge partitioning (any algorithm in the repository) plus
// the captured per-edge assignment and improves the replication factor by
// evacuating boundary vertices, without ever worsening RF or pushing a
// partition past the (1+ε)·m/k balance guard.
//
// The move model follows the boundary-vertex local search of "Enhancing
// Balanced Graph Edge Partition with Effective Local Search" (arXiv
// 2012.09451): a boundary vertex v (replicated on ≥ 2 partitions) is
// evacuated from one hosting partition p by migrating all of v's p-edges to
// another partition q that already hosts v. The move removes v's replica on
// p (+1 gain) and may add the other endpoints of the moved edges to q (the
// cost term), so the estimated gain
//
//	gain(v, p→q) = 1 − |{moved edges (v,u) : u not replicated on q}|
//
// is evaluated per candidate q and only strictly positive moves are kept.
//
// The only strictly positive gain is 1, reached when every moved edge's other
// endpoint already lives on q, so the scan reduces to an AND of mask words.
//
// Rounds are the safety boundary: workers stride the boundary vertices, each
// gathering its per-partition edge counts and neighbour-mask ANDs in one pass
// over its incidence, and apply the selected moves with CAS claims on the
// assignment array. The replica table is then patched in place — only the
// endpoints of claimed edges can change mask — and its running total compared
// against the round-start total. Moves never change which vertices are
// covered, so the total-replica ordering is exactly the RF ordering — a round
// that would worsen it is reverted wholesale (assignment from a round-start
// snapshot, touched masks from their saved words), which turns the per-move
// estimate into a hard RF-never-worse guarantee at round granularity. A round
// costs one pass over the boundary's incidence plus the incidence of the
// claimed edges' endpoints, and the O(m) snapshot copy.
//
// The optional split–merge mode (merge.go, after the Split_Merge_Partitioner
// scheme) partitions into x·k buckets first and greedily merges back to k by
// max-overlap pairing before the move rounds run.
package refine

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"hep/internal/graph"
	"hep/internal/obs"
	"hep/internal/part"
	"hep/internal/pstate"
	"hep/internal/shard"
)

// Refinement modes accepted by Options.Mode (and hep.Config.Refine).
const (
	// ModeMoves runs boundary-vertex move rounds on the algorithm's own
	// k-way output.
	ModeMoves = "moves"
	// ModeSplitMerge partitions into SplitFactor·k buckets, greedily merges
	// back to k by max-overlap pairing, then runs the move rounds.
	ModeSplitMerge = "split-merge"
)

// Defaults for the zero values of Options.
const (
	DefaultRounds      = 4
	DefaultEps         = 0.05
	DefaultSplitFactor = 2
)

// maxEvacuate caps the edge bundle one move may migrate. Evacuating a hub
// from a partition holding thousands of its edges is never a net win — the
// cost term saturates long before — and skipping those keeps the scan and
// the claim loop bounded per vertex.
const maxEvacuate = 1 << 10

// ErrNoTable reports a Result whose vertex-major replica table is nil or
// smaller than the result's n or k (a zero-value Table). Refinement
// reads the table on every gain probe, so such a result is rejected up
// front instead of panicking inside the scan.
var ErrNoTable = errors.New("refine: result has no live replica table")

// Options parameterizes one refinement pass.
type Options struct {
	// Mode is ModeMoves (the default for "") or ModeSplitMerge.
	Mode string
	// Rounds bounds the move rounds (0 = DefaultRounds). Rounds stop early
	// when a sweep proposes no positive-gain move or a round is reverted.
	Rounds int
	// Workers is the scan/apply parallelism: 0 resolves to GOMAXPROCS,
	// 1 forces the exact sequential path (the determinism guarantee, same
	// contract as hep.Config.Workers).
	Workers int
	// Eps is the balance slack ε of the guard (1+ε)·m/k (0 = DefaultEps).
	// A partitioning that already exceeds the guard is not made stricter:
	// the effective bound is max(⌈(1+ε)·m/k⌉, input max load).
	Eps float64
	// SplitFactor is ModeSplitMerge's over-partitioning factor x (0 =
	// DefaultSplitFactor).
	SplitFactor int
	// Obs receives refinement spans and counters (refine_rounds,
	// moves_applied, moves_rejected_balance, gain_recomputes). Nil disables.
	Obs *obs.Obs
	// RoundHook, if set, observes the result mid-pass: it is called once
	// with round 0 before any move (the input state) and then after every
	// round, reverted or not, with the result and the live assignment
	// array. Returning an error aborts the pass. The property harness
	// (parttest.RefineInvariants) validates every invariant here.
	RoundHook func(round int, res *part.Result, edges []graph.Edge, parts []int32) error
}

func (o Options) mode() string {
	if o.Mode == "" {
		return ModeMoves
	}
	return o.Mode
}

func (o Options) rounds() int {
	if o.Rounds <= 0 {
		return DefaultRounds
	}
	return o.Rounds
}

func (o Options) workers() int {
	return shard.Options{Workers: o.Workers}.Resolve()
}

func (o Options) eps() float64 {
	if o.Eps <= 0 {
		return DefaultEps
	}
	return o.Eps
}

func (o Options) splitFactor() int {
	if o.SplitFactor < 2 {
		return DefaultSplitFactor
	}
	return o.SplitFactor
}

// ValidMode reports whether mode names a refinement mode ("" counts: it is
// the ModeMoves default).
func ValidMode(mode string) bool {
	return mode == "" || mode == ModeMoves || mode == ModeSplitMerge
}

// Stats summarizes one refinement pass.
type Stats struct {
	// Rounds is the number of move rounds executed (including a reverted
	// final round and the terminating empty sweep).
	Rounds int
	// Applied counts moves that claimed at least one edge.
	Applied int64
	// RejectedBalance counts moves rejected by the balance guard.
	RejectedBalance int64
	// RejectedConflict counts moves whose every edge was claimed first by a
	// competing move.
	RejectedConflict int64
	// PartialClaims counts applied moves that claimed fewer edges than they
	// scanned (a competing move took the rest).
	PartialClaims int64
	// Interactions counts selected moves whose source partition another
	// selected move could drain or feed mid-apply — the moves whose outcome
	// can depend on claim order. Computed from the deterministic move list
	// before the apply phase: zero interactions and zero balance rejections
	// mean every round was an order-independent remap (the property the
	// fuzz harness keys on).
	Interactions int64
	// GainRecomputes counts candidate-gain evaluations in the scan phase.
	GainRecomputes int64
	// MovedEdges counts edge migrations across all applied moves.
	MovedEdges int64
	// EstimatedGain sums the estimated replica gain of the selected moves.
	// Every selected gain is 1, so it counts them.
	EstimatedGain int64
	// RevertedRounds counts rounds rolled back because the patched replica
	// table showed a net RF regression (at most 1: a revert stops the pass).
	RevertedRounds int
	// Merges and ForcedMerges are ModeSplitMerge's pairing counts; a forced
	// merge had no partner under the balance bound and took the min-load
	// pair instead.
	Merges       int
	ForcedMerges int
	// Bound is the effective balance bound the move rounds enforced.
	Bound int64
}

// BalanceBound is the guard the move rounds enforce: ⌈(1+eps)·m/k⌉, never
// stricter than the input's max load (refinement improves RF; it does not
// repair a pre-existing imbalance).
func BalanceBound(m int64, k int, eps float64, inputMax int64) int64 {
	if k < 1 {
		return m
	}
	bound := int64(math.Ceil((1 + eps) * float64(m) / float64(k)))
	if inputMax > bound {
		bound = inputMax
	}
	return bound
}

// Capture is the assignment sink the refinement wrapper interposes on the
// inner algorithm: it records every edge with its partition, in delivery
// order, giving the post-pass the O(m) assignment array the Result alone
// does not retain.
type Capture struct {
	Edges []graph.Edge
	Parts []int32
}

// Assign implements part.Sink.
func (c *Capture) Assign(u, v graph.V, p int) {
	c.Edges = append(c.Edges, graph.Edge{U: u, V: v})
	c.Parts = append(c.Parts, int32(p))
}

// Replay delivers the captured (possibly refined) assignment to sink.
func (c *Capture) Replay(sink part.Sink) {
	if sink == nil {
		return
	}
	for i, e := range c.Edges {
		sink.Assign(e.U, e.V, int(c.Parts[i]))
	}
}

// checkLive rejects results the pass cannot read: nil or undersized
// replica tables, and an assignment array that does not match the result.
func checkLive(res *part.Result, edges []graph.Edge, parts []int32) error {
	if res == nil {
		return errors.New("refine: nil result")
	}
	if res.Reps == nil || res.Loads == nil || res.Reps.N() < res.N || res.Reps.K() < res.K {
		return fmt.Errorf("%w (n=%d k=%d)", ErrNoTable, res.N, res.K)
	}
	if len(edges) != len(parts) {
		return fmt.Errorf("refine: %d edges with %d assignments", len(edges), len(parts))
	}
	if int64(len(edges)) != res.M {
		return fmt.Errorf("refine: captured %d assignments, result has M=%d", len(edges), res.M)
	}
	return nil
}

// move is one selected evacuation: migrate v's cnt edges out of partition
// from into partition to. Every selected move has estimated gain 1.
type move struct {
	v        graph.V
	from, to int32
	cnt      int32
}

// incidence is the per-vertex CSR over edge ids, built once per pass. Entry
// j of v holds the edge id ids[j] and the edge's other endpoint nbr[j], so
// a scan reads neighbours in order instead of loading the edge. A self loop
// contributes a single entry whose neighbour is v itself.
type incidence struct {
	off []int64
	ids []int32
	nbr []graph.V
}

func buildIncidence(n int, edges []graph.Edge) incidence {
	off := make([]int64, n+1)
	for _, e := range edges {
		off[e.U+1]++
		if e.V != e.U {
			off[e.V+1]++
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	ids := make([]int32, off[n])
	nbr := make([]graph.V, off[n])
	cur := make([]int64, n)
	copy(cur, off[:n])
	for i, e := range edges {
		ids[cur[e.U]], nbr[cur[e.U]] = int32(i), e.V
		cur[e.U]++
		if e.V != e.U {
			ids[cur[e.V]], nbr[cur[e.V]] = int32(i), e.U
			cur[e.V]++
		}
	}
	return incidence{off: off, ids: ids, nbr: nbr}
}

func (in incidence) edgesOf(v graph.V) []int32 {
	return in.ids[in.off[v]:in.off[v+1]]
}

// nbrsOf is v's neighbour column, entry for entry beside edgesOf(v).
func (in incidence) nbrsOf(v graph.V) []graph.V {
	return in.nbr[in.off[v]:in.off[v+1]]
}

// Run executes the boundary-move rounds in place: res, edges and parts must
// describe the same partitioning (parts[i] is the partition of edges[i]).
// On return the three are mutually consistent with every applied move.
func Run(res *part.Result, edges []graph.Edge, parts []int32, o Options) (Stats, error) {
	var st Stats
	if err := checkLive(res, edges, parts); err != nil {
		return st, err
	}
	n, k, m := res.N, res.K, int64(len(edges))
	if o.RoundHook != nil {
		if err := o.RoundHook(0, res, edges, parts); err != nil {
			return st, err
		}
	}
	if k < 2 || m == 0 || n == 0 {
		return st, nil
	}
	workers := o.workers()
	st.Bound = BalanceBound(m, k, o.eps(), res.Loads.Max())
	inc := buildIncidence(n, edges)

	// Per-partition loads under atomic update: the apply phase reserves
	// capacity with CAS before claiming edges, so the balance guard holds
	// under any interleaving.
	loads := make([]atomic.Int64, k)
	for p := 0; p < k; p++ {
		loads[p].Store(res.Counts[p])
	}

	c := o.Obs.Counters()
	sp := o.Obs.Span("refine-moves")
	defer sp.End()

	t := res.Reps
	prevTotal := t.TotalReplicas()
	snapshot := make([]int32, len(parts))
	loadSnap := make([]int64, k)
	claims := make([][]int32, workers)
	first := make([]int32, n)
	for v := range first {
		first[v] = -1
	}
	delta := &tableDelta{seen: make([]bool, n), mask: make([]uint64, t.Words())}

	for round := 1; round <= o.rounds(); round++ {
		boundary := collectBoundary(t, n)
		if len(boundary) == 0 {
			break
		}

		rsp := o.Obs.Span("refine-round")
		moves := scanMoves(t, inc, parts, boundary, loads, st.Bound, workers, c, &st)
		c.Add(obs.CtrRefineRounds, 1)
		st.Rounds++
		if len(moves) == 0 {
			rsp.End()
			if o.RoundHook != nil {
				if err := o.RoundHook(round, res, edges, parts); err != nil {
					return st, err
				}
			}
			break
		}
		st.EstimatedGain += int64(len(moves))
		st.Interactions += countInteractions(moves, inc, parts, first)

		copy(snapshot, parts)
		for p := 0; p < k; p++ {
			loadSnap[p] = loads[p].Load()
		}
		moved := applyMoves(moves, inc, parts, loads, st.Bound, claims, c, &st)

		// Patch the replica table from the assignment — the one source of
		// truth after concurrent claims — and enforce RF-never-worse at round
		// granularity: moves do not change vertex coverage, so the running
		// total-replica comparison is the RF comparison.
		delta.apply(t, inc, edges, parts, claims)
		newTotal := t.TotalReplicas()
		reverted := newTotal > prevTotal
		if reverted {
			copy(parts, snapshot)
			delta.undo(t)
			for p := 0; p < k; p++ {
				loads[p].Store(loadSnap[p])
			}
			st.RevertedRounds++
		} else {
			prevTotal = newTotal
			for p := 0; p < k; p++ {
				if d := loads[p].Load() - res.Counts[p]; d != 0 {
					res.Loads.Bulk(p, d)
				}
			}
		}
		rsp.Edges(moved).End()
		if o.RoundHook != nil {
			if err := o.RoundHook(round, res, edges, parts); err != nil {
				return st, err
			}
		}
		if reverted {
			break
		}
	}
	return st, nil
}

// collectBoundary returns the vertices replicated on ≥ 2 partitions.
func collectBoundary(t *pstate.Table, n int) []graph.V {
	var verts []graph.V
	for v := 0; v < n; v++ {
		if t.Count(graph.V(v)) >= 2 {
			verts = append(verts, graph.V(v))
		}
	}
	return verts
}

// scanMoves is the parallel gain sweep. Workers stride the boundary
// vertices; one pass over a vertex v's incidence gathers, per partition p,
// the count of v's p-edges and the AND of their other endpoints' mask words.
// Evacuating v from a hosting partition p gains 1 exactly on the targets
// mask(v) & AND_p &^ bit(p) — every p-neighbour already lives there — and
// the lowest-loaded target wins, ties to the lowest partition id. The
// merged move list is sorted by (v, from), so every worker count yields the
// same list.
func scanMoves(t *pstate.Table, inc incidence, parts []int32,
	boundary []graph.V, loads []atomic.Int64,
	bound int64, workers int, c *obs.Counters, st *Stats) []move {

	k, words := t.K(), t.Words()
	perWorker := make([][]move, workers)
	recomputes := make([]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var local []move
			var evals int64
			// Per-partition accumulators of the current vertex: cnt[p] counts
			// its p-edges, and[p·words:] ANDs their other endpoints' masks,
			// seen lists the partitions with cnt > 0 so the reset stays
			// O(|P(v)|). The scan has no concurrent writer (the apply phase is
			// barrier-separated), so plain reads of parts and the table are
			// safe.
			cnt := make([]int32, k)
			and := make([]uint64, k*words)
			mask := make([]uint64, words)
			var seen []int32
			for i := w; i < len(boundary); i += workers {
				v := boundary[i]
				hosts := 0
				for wi := range mask {
					mask[wi] = t.Word(v, wi)
					hosts += bits.OnesCount64(mask[wi])
				}
				nbrs := inc.nbrsOf(v)
				for j, eid := range inc.edgesOf(v) {
					p, u := parts[eid], nbrs[j]
					if words == 1 { // k ≤ 64: skip the slice arithmetic
						if cnt[p] == 0 {
							seen = append(seen, p)
							and[p] = t.Word(u, 0)
						} else {
							and[p] &= t.Word(u, 0)
						}
						cnt[p]++
						continue
					}
					acc := and[int(p)*words : int(p+1)*words]
					if cnt[p] == 0 {
						seen = append(seen, p)
						for wi := range acc {
							acc[wi] = t.Word(u, wi)
						}
					} else {
						for wi := range acc {
							acc[wi] &= t.Word(u, wi)
						}
					}
					cnt[p]++
				}
				// Evaluate each partition p holding v's edges; every other
				// hosting partition counts as one gain evaluation.
				for _, p := range seen {
					ne := cnt[p]
					cnt[p] = 0
					if ne > maxEvacuate || int64(ne) > bound {
						continue
					}
					evals += int64(hosts - 1)
					acc := and[int(p)*words : int(p+1)*words]
					best, bestLoad := -1, int64(0)
					for wi := range acc {
						cand := mask[wi] & acc[wi]
						if wi == int(p>>6) {
							cand &^= 1 << (uint(p) & 63)
						}
						for ; cand != 0; cand &= cand - 1 {
							q := wi<<6 + bits.TrailingZeros64(cand)
							if ql := loads[q].Load(); best < 0 || ql < bestLoad {
								best, bestLoad = q, ql
							}
						}
					}
					if best >= 0 {
						local = append(local, move{v: v, from: p, to: int32(best), cnt: ne})
					}
				}
				seen = seen[:0]
			}
			recomputes[w] = evals
			perWorker[w] = local
		}(w)
	}
	wg.Wait()

	var total int64
	for _, n := range recomputes {
		total += n
	}
	c.Add(obs.CtrGainRecomputes, total)
	st.GainRecomputes += total

	var moves []move
	for _, l := range perWorker {
		moves = append(moves, l...)
	}
	slices.SortFunc(moves, func(a, b move) int {
		if a.v != b.v {
			return cmp.Compare(a.v, b.v)
		}
		return cmp.Compare(a.from, b.from)
	})
	return moves
}

// countInteractions reports how many selected moves the apply phase's claim
// order could affect. Move X = (w, f→t) is order-sensitive iff another
// selected move can touch its source edge set mid-apply: a scanned edge
// (p == f) whose other endpoint also evacuates f (a shared claim), or any
// edge of w that another move would migrate into f (an arrival, M.from == p
// and M.to == f — including w's own move out of another partition pushing a
// self-loop home). The move list is deterministic per round, so this count
// is identical for every worker schedule.
//
// first is a per-vertex scratch index, all -1 on entry and on return: while
// counting, first[z] is the position of z's first move in the (v, from)-
// sorted list, whose moves of z are contiguous from there.
func countInteractions(moves []move, inc incidence, parts []int32, first []int32) int64 {
	for i := len(moves) - 1; i >= 0; i-- {
		first[moves[i].v] = int32(i)
	}
	var n int64
	for i, mv := range moves {
		nbrs := inc.nbrsOf(mv.v)
	nextMove:
		for ei, eid := range inc.edgesOf(mv.v) {
			p, z := parts[eid], nbrs[ei]
			for j := int(first[z]); j >= 0 && j < len(moves) && moves[j].v == z; j++ {
				o := moves[j]
				if j != i && ((p == mv.from && z != mv.v && o.from == mv.from) ||
					(o.from == p && o.to == mv.from)) {
					n++
					break nextMove
				}
			}
		}
	}
	for _, mv := range moves {
		first[mv.v] = -1
	}
	return n
}

// applyResult is one worker's apply-phase tally.
type applyResult struct {
	applied, rejBalance, rejConflict, partial, moved int64
}

// applyMoves claims the selected moves with per-edge CAS on the assignment
// array, one worker per claims log. Each move first reserves capacity on its
// target under the balance bound, then claims up to cnt of v's from-edges;
// edges a competing move claimed first stay claimed (v still leaves from —
// the competitor moved them out of from too). Claims are capped at the
// reservation so the guard can never be exceeded by edges that migrated into
// from concurrently. Worker w records the ids of the edges it claimed in
// claims[w]; an edge claimed twice in a round appears twice.
func applyMoves(moves []move, inc incidence, parts []int32, loads []atomic.Int64,
	bound int64, claims [][]int32, c *obs.Counters, st *Stats) int64 {

	workers := len(claims)
	results := make([]applyResult, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var r applyResult
			log := claims[w][:0]
			for i := w; i < len(moves); i += workers {
				mv := moves[i]
				reserved := false
				for {
					cur := loads[mv.to].Load()
					if cur+int64(mv.cnt) > bound {
						break
					}
					if loads[mv.to].CompareAndSwap(cur, cur+int64(mv.cnt)) {
						reserved = true
						break
					}
				}
				if !reserved {
					r.rejBalance++
					continue
				}
				claimed := int64(0)
				for _, eid := range inc.edgesOf(mv.v) {
					if claimed == int64(mv.cnt) {
						break
					}
					// Most of v's edges are not on from: a plain load skips
					// them without a locked instruction, exactly as a CAS
					// failing at that instant would.
					if atomic.LoadInt32(&parts[eid]) == mv.from &&
						atomic.CompareAndSwapInt32(&parts[eid], mv.from, mv.to) {
						claimed++
						log = append(log, eid)
					}
				}
				if claimed == 0 {
					loads[mv.to].Add(-int64(mv.cnt))
					r.rejConflict++
					continue
				}
				if claimed < int64(mv.cnt) {
					loads[mv.to].Add(claimed - int64(mv.cnt))
					r.partial++
				}
				loads[mv.from].Add(-claimed)
				r.applied++
				r.moved += claimed
			}
			claims[w] = log
			results[w] = r
		}(w)
	}
	wg.Wait()

	applied, rejBalance := st.Applied, st.RejectedBalance
	var moved int64
	for _, r := range results {
		st.Applied += r.applied
		st.RejectedBalance += r.rejBalance
		st.RejectedConflict += r.rejConflict
		st.PartialClaims += r.partial
		st.MovedEdges += r.moved
		moved += r.moved
	}
	c.Add(obs.CtrMovesApplied, st.Applied-applied)
	c.Add(obs.CtrMovesRejectedBalance, st.RejectedBalance-rejBalance)
	return moved
}

// tableDelta patches the replica table after a round's claims. A vertex's
// mask is the set of partitions its incident edges live on, so only the
// endpoints of claimed edges can change: apply recomputes their masks from
// the incidence and writes the differing bits through Table.Add and
// Table.Remove, which keep the per-partition and covered counts exact. The
// words each touched vertex held before the patch are saved for undo.
type tableDelta struct {
	seen    []bool    // per vertex: already in touched this round
	touched []graph.V // endpoints of this round's claimed edges
	saved   []uint64  // pre-patch mask words, words per touched vertex
	mask    []uint64  // one recomputed mask
}

// apply brings the mask of every endpoint of a claimed edge in line with
// parts.
func (d *tableDelta) apply(t *pstate.Table, inc incidence, edges []graph.Edge, parts []int32, claims [][]int32) {
	d.touched, d.saved = d.touched[:0], d.saved[:0]
	for _, log := range claims {
		for _, eid := range log {
			d.touch(t, edges[eid].U)
			d.touch(t, edges[eid].V)
		}
	}
	for _, x := range d.touched {
		d.seen[x] = false
		clear(d.mask)
		for _, eid := range inc.edgesOf(x) {
			p := parts[eid]
			d.mask[p>>6] |= 1 << (uint(p) & 63)
		}
		setMask(t, x, d.mask)
	}
}

func (d *tableDelta) touch(t *pstate.Table, x graph.V) {
	if d.seen[x] {
		return
	}
	d.seen[x] = true
	d.touched = append(d.touched, x)
	for wi := range d.mask {
		d.saved = append(d.saved, t.Word(x, wi))
	}
}

// undo restores the masks the last apply changed.
func (d *tableDelta) undo(t *pstate.Table) {
	words := len(d.mask)
	for i, x := range d.touched {
		setMask(t, x, d.saved[i*words:(i+1)*words])
	}
}

// setMask rewrites v's mask to want (⌈k/64⌉ words) bit by bit.
func setMask(t *pstate.Table, v graph.V, want []uint64) {
	for wi, w := range want {
		have := t.Word(v, wi)
		for add := w &^ have; add != 0; add &= add - 1 {
			t.Add(v, wi<<6+bits.TrailingZeros64(add))
		}
		for rem := have &^ w; rem != 0; rem &= rem - 1 {
			t.Remove(v, wi<<6+bits.TrailingZeros64(rem))
		}
	}
}
