package parttest

import (
	"fmt"

	"hep/internal/graph"
	"hep/internal/part"
	"hep/internal/pstate"
	"hep/internal/refine"
)

// RefineInvariants drives algo through the refinement wrapper and checks the
// quality invariants of the post-pass after every round, not just at the end:
//
//   - RF never worse: the total replica count is non-increasing from the
//     state the move rounds start on (for split-merge, additionally never
//     worse than the over-partitioned input — merging unions vertex sets).
//   - Balance never worse: no partition exceeds max(⌈(1+ε)·m/k⌉, input max),
//     the exact bound refine.BalanceBound promises.
//   - Every edge assigned exactly once: the per-partition tally of the live
//     assignment array matches res.Counts after every round, and the final
//     sink delivery matches the input edge multiset.
//   - Replica table consistent: rebuilding the table from the assignment
//     array yields exactly res.Reps after every round.
//
// The per-round checks run inside refine's RoundHook (round 0 observes the
// input state); the final result additionally passes the full conformance
// checks (CheckExactlyOnce, CheckReplicas, Result.Validate) against the
// wrapper's replayed sink. The wrapper's RunInfo is returned for metric
// assertions (e.g. RF improvement on the stand-in graphs).
func RefineInvariants(algo part.Algorithm, src graph.EdgeStream, k int, o refine.Options) (*part.Result, refine.RunInfo, error) {
	eps := o.Eps
	if eps <= 0 {
		eps = refine.DefaultEps
	}
	var bound, prevTotal int64
	userHook := o.RoundHook
	o.RoundHook = func(round int, res *part.Result, edges []graph.Edge, parts []int32) error {
		if round == 0 {
			bound = refine.BalanceBound(res.M, res.K, eps, res.Loads.Max())
			prevTotal = res.Reps.TotalReplicas()
		} else {
			total := res.Reps.TotalReplicas()
			if total > prevTotal {
				return fmt.Errorf("round %d: total replicas rose %d → %d (RF got worse)", round, prevTotal, total)
			}
			prevTotal = total
			if max := res.Loads.Max(); max > bound {
				return fmt.Errorf("round %d: max load %d exceeds balance bound %d", round, max, bound)
			}
		}
		if err := checkRoundState(res, edges, parts); err != nil {
			return fmt.Errorf("round %d: %v", round, err)
		}
		if userHook != nil {
			return userHook(round, res, edges, parts)
		}
		return nil
	}

	wrapped := refine.Wrap(algo, o)
	col := &part.Collect{}
	res, err := runWithSink(wrapped, src, k, col)
	if err != nil {
		return nil, refine.RunInfo{}, fmt.Errorf("%s: %v", wrapped.Name(), err)
	}
	if err := res.Validate(); err != nil {
		return nil, wrapped.Last, fmt.Errorf("%s: %v", wrapped.Name(), err)
	}
	if err := CheckExactlyOnce(src, res, col); err != nil {
		return nil, wrapped.Last, fmt.Errorf("%s: %v", wrapped.Name(), err)
	}
	if err := CheckReplicas(res, col); err != nil {
		return nil, wrapped.Last, fmt.Errorf("%s: %v", wrapped.Name(), err)
	}
	// End-to-end RF-never-worse: for ModeMoves this is against the inner
	// algorithm's own k-way output; for ModeSplitMerge against the x·k
	// over-partitioning (merging unions vertex sets, so it cannot raise RF
	// either). A tiny slack absorbs float division, nothing else.
	if rf, in := res.ReplicationFactor(), wrapped.Last.InputRF; rf > in*(1+1e-12) {
		return nil, wrapped.Last, fmt.Errorf("%s: refined RF %.6f worse than input RF %.6f", wrapped.Name(), rf, in)
	}
	return res, wrapped.Last, nil
}

// checkRoundState verifies the mid-pass consistency triangle between the
// result, the edge list and the live assignment array: counts match the
// assignment tally and the replica table is exactly the table the assignment
// induces, running covered and per-partition vertex counts included.
func checkRoundState(res *part.Result, edges []graph.Edge, parts []int32) error {
	if len(edges) != len(parts) {
		return fmt.Errorf("%d edges with %d assignments", len(edges), len(parts))
	}
	if int64(len(parts)) != res.M {
		return fmt.Errorf("assignment array holds %d edges, result has M=%d", len(parts), res.M)
	}
	counts := make([]int64, res.K)
	rebuilt := pstate.NewTable(res.N, res.K)
	for i, e := range edges {
		p := int(parts[i])
		if p < 0 || p >= res.K {
			return fmt.Errorf("edge %v assigned to out-of-range partition %d", e, p)
		}
		counts[p]++
		rebuilt.Add(e.U, p)
		rebuilt.Add(e.V, p)
	}
	for p, c := range counts {
		if c != res.Counts[p] {
			return fmt.Errorf("partition %d: assignment tally %d, result counts %d", p, c, res.Counts[p])
		}
	}
	if got, want := res.Reps.TotalReplicas(), rebuilt.TotalReplicas(); got != want {
		return fmt.Errorf("replica table holds %d replicas, assignment induces %d", got, want)
	}
	if got, want := res.Reps.Covered(), rebuilt.Covered(); got != want {
		return fmt.Errorf("replica table covers %d vertices, assignment induces %d", got, want)
	}
	for p := 0; p < res.K; p++ {
		if got, want := res.Reps.VertexCount(p), rebuilt.VertexCount(p); got != want {
			return fmt.Errorf("partition %d: replica table counts %d vertices, assignment induces %d", p, got, want)
		}
	}
	for v := 0; v < res.N; v++ {
		var bad error
		rebuilt.RangeVertex(graph.V(v), func(p int) bool {
			if !res.Reps.Has(graph.V(v), p) {
				bad = fmt.Errorf("vertex %d: assignment puts it on partition %d, replica table disagrees", v, p)
				return false
			}
			return true
		})
		if bad != nil {
			return bad
		}
		if got, want := res.Reps.Count(graph.V(v)), rebuilt.Count(graph.V(v)); got != want {
			return fmt.Errorf("vertex %d: replica table count %d, assignment induces %d", v, got, want)
		}
	}
	return nil
}
