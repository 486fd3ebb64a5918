package refine

import (
	"testing"

	"hep/internal/graph"
	"hep/internal/part"
)

// FuzzRefineMoves throws arbitrary small partitionings at the move rounds
// and checks the invariants the property harness pins, plus worker-count
// independence: from the same input, the W=1 and W=4 passes must both
// never worsen RF, never break balance or the exactly-once tally, and
// produce the same assignment and Stats (the scan's worker count never
// reaches the ordered apply loop).
func FuzzRefineMoves(f *testing.F) {
	f.Add([]byte{3, 20, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{0, 0})
	f.Add([]byte{6, 60, 250, 250, 250, 9, 9, 9, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		k := 2 + int(data[0])%7
		n := 4 + int(data[1])%60
		body := data[2:]
		var edges []graph.Edge
		var parts []int32
		for i := 0; i+2 < len(body); i += 3 {
			u := graph.V(int(body[i]) % n)
			v := graph.V(int(body[i+1]) % n)
			edges = append(edges, graph.Edge{U: u, V: v})
			parts = append(parts, int32(int(body[i+2])%k))
		}

		run := func(workers int) (*part.Result, []int32, Stats) {
			p := make([]int32, len(parts))
			copy(p, parts)
			res := buildState(n, k, edges, p)
			st, err := Run(res, edges, p, Options{Workers: workers, Rounds: 3})
			if err != nil {
				t.Fatalf("W=%d: %v", workers, err)
			}
			return res, p, st
		}
		input := buildState(n, k, append([]graph.Edge(nil), edges...), append([]int32(nil), parts...))
		inputTotal := input.Reps.TotalReplicas()
		inputRF := input.ReplicationFactor()
		bound := BalanceBound(int64(len(edges)), k, DefaultEps, input.Loads.Max())

		check := func(label string, res *part.Result, p []int32) float64 {
			t.Helper()
			if got := res.Reps.TotalReplicas(); got > inputTotal {
				t.Fatalf("%s: replicas rose %d → %d", label, inputTotal, got)
			}
			if max := res.Loads.Max(); max > bound {
				t.Fatalf("%s: max load %d exceeds bound %d", label, max, bound)
			}
			counts := make([]int64, k)
			for i := range edges {
				if p[i] < 0 || int(p[i]) >= k {
					t.Fatalf("%s: edge %d assigned out of range: %d", label, i, p[i])
				}
				counts[p[i]]++
			}
			for q, c := range counts {
				if c != res.Counts[q] {
					t.Fatalf("%s: partition %d tally %d, result %d", label, q, c, res.Counts[q])
				}
			}
			rebuilt := rebuildTable(n, k, edges, p)
			if got, want := res.Reps.TotalReplicas(), rebuilt.TotalReplicas(); got != want {
				t.Fatalf("%s: table holds %d replicas, assignment induces %d", label, got, want)
			}
			for v := 0; v < n; v++ {
				if res.Reps.Count(graph.V(v)) != rebuilt.Count(graph.V(v)) {
					t.Fatalf("%s: vertex %d replica count diverged from assignment", label, v)
				}
			}
			if err := res.Validate(); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			return res.ReplicationFactor()
		}

		seqRes, seqParts, seqSt := run(1)
		parRes, parParts, parSt := run(4)
		seqRF := check("seq", seqRes, seqParts)
		parRF := check("par(W=4)", parRes, parParts)
		if seqSt != parSt {
			t.Fatalf("stats diverged: W=1 %+v, W=4 %+v (RF %.4f vs %.4f, input RF %.4f)", seqSt, parSt, seqRF, parRF, inputRF)
		}
		for i := range seqParts {
			if seqParts[i] != parParts[i] {
				t.Fatalf("edge %d: partition %d at W=1, %d at W=4", i, seqParts[i], parParts[i])
			}
		}
	})
}
