package refine

import (
	"fmt"
	"math/bits"

	"hep/internal/graph"
	"hep/internal/part"
	"hep/internal/pstate"
)

// SplitMerge folds an over-partitioned result (res.K = x·kTarget buckets,
// produced by running the inner algorithm at a larger k) back down to
// kTarget partitions by greedy max-overlap pairing, the
// Split_Merge_Partitioner scheme: repeatedly merge the pair of groups whose
// vertex sets share the most replicas, subject to the merged load staying
// under the (1+ε)·m/kTarget bound. When no pair fits the bound the two
// lightest groups merge anyway (counted in Stats.ForcedMerges) — the merge
// must reach exactly kTarget groups.
//
// parts is relabeled in place to the merged partition ids; the returned
// Result is freshly built from the relabeled assignment. res itself is not
// mutated.
func SplitMerge(res *part.Result, edges []graph.Edge, parts []int32, kTarget int, o Options) (*part.Result, Stats, error) {
	var st Stats
	if err := checkLive(res, edges, parts); err != nil {
		return nil, st, err
	}
	if kTarget < 1 {
		return nil, st, fmt.Errorf("refine: merge target k must be ≥ 1, got %d", kTarget)
	}
	kk := res.K
	if kk < kTarget {
		return nil, st, fmt.Errorf("refine: cannot merge %d groups up to %d partitions", kk, kTarget)
	}
	if kk == kTarget {
		return res, st, nil
	}
	sp := o.Obs.Span("refine-merge")
	defer sp.End()

	n, m := res.N, int64(len(edges))
	st.Bound = BalanceBound(m, kTarget, o.eps(), 0)

	// Per-group vertex bitsets (partition-major; kk·n/8 bytes, transient)
	// and the pairwise overlap matrix. After each merge only the merged
	// group's row is recomputed.
	words := (n + 63) / 64
	sets := make([][]uint64, kk)
	for p := 0; p < kk; p++ {
		sets[p] = make([]uint64, words)
	}
	for v := 0; v < n; v++ {
		res.Reps.RangeVertex(graph.V(v), func(p int) bool {
			sets[p][v>>6] |= 1 << (uint(v) & 63)
			return true
		})
	}
	loads := make([]int64, kk)
	copy(loads, res.Counts)
	ov := make([][]int64, kk)
	for a := 0; a < kk; a++ {
		ov[a] = make([]int64, kk)
	}
	for a := 0; a < kk; a++ {
		for b := a + 1; b < kk; b++ {
			x := popcountAnd(sets[a], sets[b])
			ov[a][b], ov[b][a] = x, x
		}
	}

	alive := make([]bool, kk)
	for p := range alive {
		alive[p] = true
	}
	root := make([]int32, kk)
	for p := range root {
		root[p] = int32(p)
	}

	for groups := kk; groups > kTarget; groups-- {
		ba, bb := -1, -1
		var bestOv int64 = -1
		for a := 0; a < kk; a++ {
			if !alive[a] {
				continue
			}
			for b := a + 1; b < kk; b++ {
				if !alive[b] || loads[a]+loads[b] > st.Bound {
					continue
				}
				if ov[a][b] > bestOv {
					bestOv, ba, bb = ov[a][b], a, b
				}
			}
		}
		if ba < 0 {
			// No pair fits the bound: force the lightest pair together.
			var bestLoad int64
			for a := 0; a < kk; a++ {
				if !alive[a] {
					continue
				}
				for b := a + 1; b < kk; b++ {
					if !alive[b] {
						continue
					}
					if ba < 0 || loads[a]+loads[b] < bestLoad {
						bestLoad, ba, bb = loads[a]+loads[b], a, b
					}
				}
			}
			st.ForcedMerges++
		}
		// Merge bb into ba (the smaller id survives).
		for w := 0; w < words; w++ {
			sets[ba][w] |= sets[bb][w]
		}
		sets[bb] = nil
		loads[ba] += loads[bb]
		loads[bb] = 0
		alive[bb] = false
		for p := range root {
			if root[p] == int32(bb) {
				root[p] = int32(ba)
			}
		}
		for c := 0; c < kk; c++ {
			if c == ba || !alive[c] {
				continue
			}
			x := popcountAnd(sets[ba], sets[c])
			ov[ba][c], ov[c][ba] = x, x
		}
		st.Merges++
	}

	// Compact surviving group ids to 0..kTarget-1 in ascending order and
	// relabel the assignment.
	remap := make([]int32, kk)
	next := int32(0)
	for p := 0; p < kk; p++ {
		if alive[p] {
			remap[p] = next
			next++
		}
	}
	for i := range parts {
		parts[i] = remap[root[parts[i]]]
	}

	nr := part.NewResult(n, kTarget)
	nr.M = m
	counts := make([]int64, kTarget)
	for _, p := range parts {
		counts[p]++
	}
	for p := 0; p < kTarget; p++ {
		nr.AddLoad(p, counts[p])
	}
	nr.Reps = rebuildTable(n, kTarget, edges, parts)
	sp.Edges(m)
	return nr, st, nil
}

// rebuildTable derives the replica table from the assignment array.
func rebuildTable(n, k int, edges []graph.Edge, parts []int32) *pstate.Table {
	t := pstate.NewTable(n, k)
	for i, e := range edges {
		p := int(parts[i])
		t.Add(e.U, p)
		t.Add(e.V, p)
	}
	return t
}

func popcountAnd(a, b []uint64) int64 {
	var c int64
	for i := range a {
		c += int64(bits.OnesCount64(a[i] & b[i]))
	}
	return c
}
