package refine

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"hep/internal/gen"
	"hep/internal/graph"
	"hep/internal/part"
	"hep/internal/pstate"
	"hep/internal/stream"
)

// This file keeps a straightforward move round as a reference: a
// per-(vertex, partition) gain scan over pstate.Buckets that re-walks the
// vertex's incidence and probes every target edge by edge, a map-indexed
// interaction count, and a replica table rebuilt from all m edges every
// round. Run must match it bit for bit at Workers: 1.

// oracleRun is the reference Run: same loop, rebuilt table, wholesale revert.
func oracleRun(res *part.Result, edges []graph.Edge, parts []int32, o Options) Stats {
	var st Stats
	n, k, m := res.N, res.K, int64(len(edges))
	if k < 2 || m == 0 || n == 0 {
		return st
	}
	workers := o.workers()
	st.Bound = BalanceBound(m, k, o.eps(), res.Loads.Max())
	inc := buildIncidence(n, edges)
	loads := make([]atomic.Int64, k)
	for p := 0; p < k; p++ {
		loads[p].Store(res.Counts[p])
	}
	prevTotal := res.Reps.TotalReplicas()
	snapshot := make([]int32, len(parts))
	loadSnap := make([]int64, k)
	claims := make([][]int32, workers)
	for round := 1; round <= o.rounds(); round++ {
		boundary, poolCap := oracleBoundary(res.Reps, n)
		if len(boundary) == 0 {
			break
		}
		buckets := pstate.NewBuckets(k, poolCap, len(boundary))
		buckets.Build(res.Reps, boundary)
		moves, est := oracleScan(res.Reps, inc, edges, parts, boundary, buckets, loads, st.Bound, workers, &st)
		st.Rounds++
		if len(moves) == 0 {
			break
		}
		st.EstimatedGain += est
		st.Interactions += oracleInteractions(moves, inc, edges, parts)
		copy(snapshot, parts)
		for p := 0; p < k; p++ {
			loadSnap[p] = loads[p].Load()
		}
		applyMoves(moves, inc, parts, loads, st.Bound, claims, nil, &st)
		nt := rebuildTable(n, k, edges, parts)
		newTotal := nt.TotalReplicas()
		if newTotal > prevTotal {
			copy(parts, snapshot)
			for p := 0; p < k; p++ {
				loads[p].Store(loadSnap[p])
			}
			st.RevertedRounds++
			break
		}
		prevTotal = newTotal
		res.Reps = nt
		for p := 0; p < k; p++ {
			if d := loads[p].Load() - res.Counts[p]; d != 0 {
				res.Loads.Bulk(p, d)
			}
		}
	}
	return st
}

// oracleBoundary returns the boundary vertices plus the total replica count
// over them (the exact Buckets pool size).
func oracleBoundary(t *pstate.Table, n int) ([]graph.V, int) {
	var verts []graph.V
	pool := 0
	for v := 0; v < n; v++ {
		if c := t.Count(graph.V(v)); c >= 2 {
			verts = append(verts, graph.V(v))
			pool += c
		}
	}
	return verts, pool
}

// oracleScan strides the partition buckets and, for every (boundary vertex
// v, hosting partition p), gathers v's p-edges and probes every other
// hosting partition q edge by edge.
func oracleScan(t *pstate.Table, inc incidence, edges []graph.Edge, parts []int32,
	boundary []graph.V, buckets *pstate.Buckets, loads []atomic.Int64,
	bound int64, workers int, st *Stats) ([]move, int64) {

	k := t.K()
	gains := make([]int64, workers)
	perWorker := make([][]move, workers)
	recomputes := make([]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var local []move
			var scratch []int32
			var evals int64
			eval := func(tag int32, p int) {
				v := boundary[tag]
				scratch = scratch[:0]
				for _, eid := range inc.edgesOf(v) {
					if parts[eid] == int32(p) {
						scratch = append(scratch, eid)
					}
				}
				cnt := len(scratch)
				if cnt == 0 || cnt > maxEvacuate || int64(cnt) > bound {
					return
				}
				bestGain, bestTo, bestLoad := int32(0), int32(-1), int64(0)
				t.RangeVertex(v, func(q int) bool {
					if q == p {
						return true
					}
					evals++
					g := int32(1)
					for _, eid := range scratch {
						u := edges[eid].U
						if u == v {
							u = edges[eid].V
						}
						if !t.Has(u, q) {
							g--
							if g < bestGain {
								break
							}
						}
					}
					ql := loads[q].Load()
					if g > bestGain || (g == bestGain && bestTo >= 0 && ql < bestLoad) {
						bestGain, bestTo, bestLoad = g, int32(q), ql
					}
					return true
				})
				if bestGain > 0 {
					if bestGain != 1 {
						panic(fmt.Sprintf("oracle: gain %d above the model's maximum of 1", bestGain))
					}
					local = append(local, move{v: v, from: int32(p), to: bestTo, cnt: int32(cnt)})
					gains[w] += int64(bestGain)
				}
			}
			for p := w; p < k; p += workers {
				for _, tag := range buckets.Bucket(p) {
					eval(tag, p)
				}
			}
			for i, tag := range buckets.Overflow() {
				if i%workers != w {
					continue
				}
				t.RangeVertex(boundary[tag], func(p int) bool {
					eval(tag, p)
					return true
				})
			}
			recomputes[w] = evals
			perWorker[w] = local
		}(w)
	}
	wg.Wait()
	for _, r := range recomputes {
		st.GainRecomputes += r
	}
	var sum int64
	for _, g := range gains {
		sum += g
	}
	var moves []move
	for _, l := range perWorker {
		moves = append(moves, l...)
	}
	// Every selected gain is 1, so the original (gain desc, v, from) order is
	// the (v, from) order.
	sort.Slice(moves, func(i, j int) bool {
		if moves[i].v != moves[j].v {
			return moves[i].v < moves[j].v
		}
		return moves[i].from < moves[j].from
	})
	return moves, sum
}

// oracleInteractions is countInteractions over a map from vertex to its
// selected moves.
func oracleInteractions(moves []move, inc incidence, edges []graph.Edge, parts []int32) int64 {
	sel := make(map[graph.V][]move, len(moves))
	for _, mv := range moves {
		sel[mv.v] = append(sel[mv.v], mv)
	}
	var n int64
	for _, mv := range moves {
	nextMove:
		for _, eid := range inc.edgesOf(mv.v) {
			p := parts[eid]
			z := edges[eid].U
			if z == mv.v {
				z = edges[eid].V
			}
			for _, o := range sel[z] {
				if o == mv {
					continue
				}
				if (p == mv.from && z != mv.v && o.from == mv.from) ||
					(o.from == p && o.to == mv.from) {
					n++
					break nextMove
				}
			}
		}
	}
	return n
}

// TestRunMatchesOracle is the reference pin: at Workers: 1, Run and the
// reference round produce identical assignments, identical replica-table
// words, running counts and Stats on the OK/TW/LJ stand-ins at k ∈ {8, 32,
// 128}. One page of isolated vertices pads every input, so k = 128 reads
// overflow words on allocated and unallocated pages alike.
func TestRunMatchesOracle(t *testing.T) {
	for _, name := range []string{"OK", "TW", "LJ"} {
		g := gen.MustDataset(name).Build(0.1)
		for _, k := range []int{8, 32, 128} {
			t.Run(fmt.Sprintf("%s/k=%d", name, k), func(t *testing.T) {
				_, rec := capture(t, &stream.HDRF{}, g, k)
				n := int(g.NumVertices()) + pstate.PageVertices
				gotParts := append([]int32(nil), rec.Parts...)
				got := buildState(n, k, rec.Edges, gotParts)
				wantParts := append([]int32(nil), rec.Parts...)
				want := buildState(n, k, rec.Edges, wantParts)

				gotSt, err := Run(got, rec.Edges, gotParts, Options{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				wantSt := oracleRun(want, rec.Edges, wantParts, Options{Workers: 1})
				if gotSt != wantSt {
					t.Fatalf("stats diverged:\n got %+v\nwant %+v", gotSt, wantSt)
				}
				if gotSt.Applied == 0 {
					t.Fatal("no move applied; the pin compares nothing")
				}
				for i := range gotParts {
					if gotParts[i] != wantParts[i] {
						t.Fatalf("edge %d: partition %d, reference %d", i, gotParts[i], wantParts[i])
					}
				}
				gt, wt := got.Reps, want.Reps
				for v := 0; v < n; v++ {
					for wi := 0; wi < gt.Words(); wi++ {
						if a, b := gt.Word(graph.V(v), wi), wt.Word(graph.V(v), wi); a != b {
							t.Fatalf("vertex %d word %d: %#x, reference %#x", v, wi, a, b)
						}
					}
				}
				if gt.Covered() != wt.Covered() || gt.TotalReplicas() != wt.TotalReplicas() {
					t.Fatalf("covered/total %d/%d, reference %d/%d", gt.Covered(), gt.TotalReplicas(), wt.Covered(), wt.TotalReplicas())
				}
				for p := 0; p < k; p++ {
					if gt.VertexCount(p) != wt.VertexCount(p) || got.Counts[p] != want.Counts[p] {
						t.Fatalf("partition %d: vertices %d edges %d, reference %d / %d",
							p, gt.VertexCount(p), got.Counts[p], wt.VertexCount(p), want.Counts[p])
					}
				}
				if pages := (n + pstate.PageVertices - 1) / pstate.PageVertices; k > 64 && gt.PagesAllocated() == pages {
					t.Fatal("every overflow page allocated; the padding page should stay unallocated")
				}
			})
		}
	}
}

// TestRunRevertRestoresState pins the undo path on the double-claim input of
// the FuzzRefineMoves corpus: in the first round edge (49,48) is claimed
// twice — 2→7 by one move of vertex 49, then 7→1 by the next — so replaying
// the claims in order would leave it on 2's successor, not on 2. The round
// raises the replica total and is reverted, and the assignment, the table
// words and every running count must come back to the input exactly, as the
// reference's wholesale revert leaves them.
func TestRunRevertRestoresState(t *testing.T) {
	edges := []graph.Edge{{U: 50, V: 48}, {U: 49, V: 48}, {U: 48, V: 48}, {U: 48, V: 48},
		{U: 48, V: 48}, {U: 48, V: 48}, {U: 49, V: 49}, {U: 49, V: 49}}
	input := []int32{7, 2, 0, 0, 2, 0, 7, 1}
	n, k := 52, 8
	ref := buildState(n, k, edges, input)

	parts := append([]int32(nil), input...)
	res := buildState(n, k, edges, parts)
	st, err := Run(res, edges, parts, Options{Workers: 1, Rounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	wantParts := append([]int32(nil), input...)
	if want := oracleRun(buildState(n, k, edges, wantParts), edges, wantParts, Options{Workers: 1, Rounds: 3}); st != want {
		t.Fatalf("stats diverged:\n got %+v\nwant %+v", st, want)
	}
	if st.RevertedRounds != 1 || st.MovedEdges == 0 {
		t.Fatalf("expected one reverted round with moved edges, stats %+v", st)
	}
	for i := range parts {
		if parts[i] != input[i] {
			t.Fatalf("edge %d: partition %d after revert, input %d", i, parts[i], input[i])
		}
	}
	for v := 0; v < n; v++ {
		if a, b := res.Reps.Word(graph.V(v), 0), ref.Reps.Word(graph.V(v), 0); a != b {
			t.Fatalf("vertex %d: mask %#x after revert, input %#x", v, a, b)
		}
	}
	if res.Reps.Covered() != ref.Reps.Covered() || res.Reps.TotalReplicas() != ref.Reps.TotalReplicas() {
		t.Fatalf("covered/total %d/%d after revert, input %d/%d",
			res.Reps.Covered(), res.Reps.TotalReplicas(), ref.Reps.Covered(), ref.Reps.TotalReplicas())
	}
	for p := 0; p < k; p++ {
		if res.Reps.VertexCount(p) != ref.Reps.VertexCount(p) || res.Counts[p] != ref.Counts[p] {
			t.Fatalf("partition %d: vertices %d edges %d after revert, input %d / %d",
				p, res.Reps.VertexCount(p), res.Counts[p], ref.Reps.VertexCount(p), ref.Counts[p])
		}
	}
}
