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
// Rounds are the safety boundary. The gain scan is parallel and read-only:
// workers stride the boundary vertices, each gathering its per-partition
// edge counts and neighbour-mask ANDs in one pass over its incidence, and
// the selected moves are sorted by (v, from). One loop then applies them in
// that order, so the output does not depend on the worker count. The
// replica table is then patched in place — only the endpoints of moved
// edges can change mask — and its running total compared against the
// round-start total. Moves never change which vertices are covered, so the
// total-replica ordering is exactly the RF ordering — a round that would
// worsen it is reverted wholesale (the round's moved-edge log written back
// in reverse, touched masks from their saved words), which turns the
// per-move estimate into a hard RF-never-worse guarantee at round
// granularity. A round costs one pass over the boundary's incidence plus
// the incidence of the moved edges' endpoints.
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
	"runtime"
	"slices"
	"sync"

	"hep/internal/graph"
	"hep/internal/obs"
	"hep/internal/part"
	"hep/internal/pstate"
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
	DefaultRounds = 4
	DefaultEps    = 0.05
)

// SplitFactor is ModeSplitMerge's over-partitioning factor x.
const SplitFactor = 2

// maxEvacuate caps the edge bundle one move may migrate. Evacuating a hub
// from a partition holding thousands of its edges is never a net win — the
// cost term saturates long before — and skipping those keeps the scan and
// the apply loop bounded per vertex.
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
	// Workers is the gain scan's parallelism (0 resolves to GOMAXPROCS).
	// Moves are applied in one ordered pass, so the output is the same at
	// every worker count.
	Workers int
	// Eps is the balance slack ε of the guard (1+ε)·m/k (0 = DefaultEps).
	// A partitioning that already exceeds the guard is not made stricter:
	// the effective bound is max(⌈(1+ε)·m/k⌉, input max load).
	Eps float64
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
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

func (o Options) eps() float64 {
	if o.Eps <= 0 {
		return DefaultEps
	}
	return o.Eps
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
	// Applied counts moves that moved at least one edge.
	Applied int64
	// RejectedBalance counts moves rejected by the balance guard.
	RejectedBalance int64
	// RejectedConflict counts moves that found none of their scanned edges
	// left on the source: earlier moves in the round took them all.
	RejectedConflict int64
	// PartialClaims counts applied moves that moved fewer edges than they
	// scanned (an earlier move in the round took the rest).
	PartialClaims int64
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

// movedEdge is one entry of a round's move log: the edge id and from, the
// partition the edge left. An edge moved twice in a round has two entries,
// so writing the sources back in reverse log order leaves it on its first
// source.
type movedEdge struct {
	id, from int32
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

	// The round's running loads; res.Counts keeps the round-start loads
	// until the round is kept.
	loads := slices.Clone(res.Counts)

	c := o.Obs.Counters()
	sp := o.Obs.Span("refine-moves")
	defer sp.End()

	t := res.Reps
	prevTotal := t.TotalReplicas()
	var moved []movedEdge
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

		moved = applyMoves(moves, inc, parts, loads, st.Bound, moved[:0], c, &st)

		// Patch the replica table from the assignment and enforce
		// RF-never-worse at round granularity: moves do not change vertex
		// coverage, so the running total-replica comparison is the RF
		// comparison.
		delta.apply(t, inc, edges, parts, moved)
		newTotal := t.TotalReplicas()
		reverted := newTotal > prevTotal
		if reverted {
			for i := len(moved) - 1; i >= 0; i-- {
				parts[moved[i].id] = moved[i].from
			}
			delta.undo(t)
			copy(loads, res.Counts)
			st.RevertedRounds++
		} else {
			prevTotal = newTotal
			for p := 0; p < k; p++ {
				if d := loads[p] - res.Counts[p]; d != 0 {
					res.Loads.Bulk(p, d)
				}
			}
		}
		rsp.Edges(int64(len(moved))).End()
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
	boundary []graph.V, loads []int64,
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
			// O(|P(v)|). The scan has no concurrent writer (the apply loop
			// runs after the join), so plain reads of parts, loads and the
			// table are safe.
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
							if ql := loads[q]; best < 0 || ql < bestLoad {
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

// applyMoves applies the selected moves in list order and returns moved
// with every edge it moves logged, in order, with its source partition. A
// move that would push its target past the bound with all cnt scanned
// edges is rejected; otherwise it moves up to cnt of v's edges still on
// from. An earlier move of a neighbour may already have taken a shared edge
// out of from, or brought one of v's edges into it, so a move can move
// fewer edges than it scanned, or none. An edge moved twice in a round
// appears twice.
func applyMoves(moves []move, inc incidence, parts []int32, loads []int64,
	bound int64, moved []movedEdge, c *obs.Counters, st *Stats) []movedEdge {

	var applied, rejBalance int64
	for _, mv := range moves {
		if loads[mv.to]+int64(mv.cnt) > bound {
			rejBalance++
			continue
		}
		n := int32(0)
		for _, eid := range inc.edgesOf(mv.v) {
			if n == mv.cnt {
				break
			}
			if parts[eid] == mv.from {
				parts[eid] = mv.to
				moved = append(moved, movedEdge{id: eid, from: mv.from})
				n++
			}
		}
		if n == 0 {
			st.RejectedConflict++
			continue
		}
		if n < mv.cnt {
			st.PartialClaims++
		}
		loads[mv.from] -= int64(n)
		loads[mv.to] += int64(n)
		st.MovedEdges += int64(n)
		applied++
	}
	st.Applied += applied
	st.RejectedBalance += rejBalance
	c.Add(obs.CtrMovesApplied, applied)
	c.Add(obs.CtrMovesRejectedBalance, rejBalance)
	return moved
}

// tableDelta patches the replica table after a round's moves. A vertex's
// mask is the set of partitions its incident edges live on, so only the
// endpoints of moved edges can change: apply recomputes their masks from
// the incidence and writes the differing bits through Table.Add and
// Table.Remove, which keep the per-partition and covered counts exact. The
// words each touched vertex held before the patch are saved for undo.
type tableDelta struct {
	seen    []bool    // per vertex: already in touched this round
	touched []graph.V // endpoints of this round's moved edges
	saved   []uint64  // pre-patch mask words, words per touched vertex
	mask    []uint64  // one recomputed mask
}

// apply brings the mask of every endpoint of a moved edge in line with
// parts.
func (d *tableDelta) apply(t *pstate.Table, inc incidence, edges []graph.Edge, parts []int32, moved []movedEdge) {
	d.touched, d.saved = d.touched[:0], d.saved[:0]
	for _, mv := range moved {
		d.touch(t, edges[mv.id].U)
		d.touch(t, edges[mv.id].V)
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
