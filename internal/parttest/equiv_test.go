package parttest

// Representation-swap equivalence: the streaming partitioners were rewritten
// from partition-major replica bitsets (k bitsets of n bits, O(k) probes per
// edge) onto the vertex-major pstate.Table (one k-bit mask per vertex,
// candidate iteration). These tests drive the OLD partition-major scoring
// code (reference.go, kept verbatim) against the new hot paths and assert
// IDENTICAL assignment sequences — same edges, same partitions, same order —
// and that the metrics derived from the new representation are bit-identical
// to the partition-major computation over the same assignments.

import (
	"math"
	"testing"

	"hep/internal/bitset"
	"hep/internal/gen"
	"hep/internal/graph"
	"hep/internal/part"
	"hep/internal/restream"
	"hep/internal/shard"
	"hep/internal/stream"
)

// checkSameAssignments compares two assignment sequences exactly.
func checkSameAssignments(t *testing.T, name string, got []part.TaggedEdge, want []part.TaggedEdge) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d assignments, reference made %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: assignment %d diverged: got %v→%d, reference %v→%d",
				name, i, got[i].E, got[i].P, want[i].E, want[i].P)
		}
	}
}

func equivGraphs() map[string]*graph.MemGraph {
	return map[string]*graph.MemGraph{
		"community": gen.CommunityPowerLaw(1500, 25, 6, 0.2, 301),
		"ba":        gen.BarabasiAlbert(1000, 5, 302),
		"star":      gen.Star(300),
		"er":        gen.ErdosRenyi(500, 3000, 303),
	}
}

// equivKs crosses the one-word/multi-word boundary of the vertex-major
// masks: k = 100 and 256 keep two and four mask words per vertex.
func equivKs() []int { return []int{2, 7, 32, 100, 256} }

// TestHDRFAssignmentsMatchPartitionMajor replays the old streamed-HDRF loop
// (partial degrees, O(k) scan) against the new candidate-iterated
// implementation, edge by edge.
func TestHDRFAssignmentsMatchPartitionMajor(t *testing.T) {
	for gname, g := range equivGraphs() {
		for _, k := range equivKs() {
			col := &part.Collect{}
			algo := &stream.HDRF{}
			algo.SetSink(col)
			if _, err := algo.Partition(g, k); err != nil {
				t.Fatal(err)
			}

			ref := NewRefState(g.NumVertices(), k)
			deg := make([]int32, g.NumVertices())
			capacity := RefCapFor(1.05, g.NumEdges(), k)
			var want []part.TaggedEdge
			err := g.Edges(func(u, v graph.V) bool {
				deg[u]++
				deg[v]++
				p := RefHDRFArgmax(ref, ref, u, v, deg[u], deg[v], stream.DefaultLambda, capacity)
				if p < 0 {
					p = RefArgmin(ref.Counts)
				}
				ref.Assign(u, v, p)
				want = append(want, part.TaggedEdge{E: graph.Edge{U: u, V: v}, P: p})
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			checkSameAssignments(t, "HDRF/"+gname, col.Edges, want)
		}
	}
}

// TestGreedyAssignmentsMatchPartitionMajor replays the old PowerGraph greedy
// full scan against the candidate-iterated version.
func TestGreedyAssignmentsMatchPartitionMajor(t *testing.T) {
	for gname, g := range equivGraphs() {
		for _, k := range equivKs() {
			col := &part.Collect{}
			algo := &stream.Greedy{}
			algo.SetSink(col)
			if _, err := algo.Partition(g, k); err != nil {
				t.Fatal(err)
			}

			ref := NewRefState(g.NumVertices(), k)
			capacity := RefCapFor(1.05, g.NumEdges(), k)
			var want []part.TaggedEdge
			err := g.Edges(func(u, v graph.V) bool {
				bothBest, eitherBest := -1, -1
				for p := 0; p < k; p++ {
					load := ref.Counts[p]
					if load >= capacity {
						continue
					}
					hu, hv := ref.Reps[p].Has(u), ref.Reps[p].Has(v)
					if hu && hv && (bothBest < 0 || load < ref.Counts[bothBest]) {
						bothBest = p
					}
					if (hu || hv) && (eitherBest < 0 || load < ref.Counts[eitherBest]) {
						eitherBest = p
					}
				}
				p := bothBest
				if p < 0 {
					p = eitherBest
				}
				if p < 0 {
					p = RefArgmin(ref.Counts)
				}
				ref.Assign(u, v, p)
				want = append(want, part.TaggedEdge{E: graph.Edge{U: u, V: v}, P: p})
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			checkSameAssignments(t, "Greedy/"+gname, col.Edges, want)
		}
	}
}

// TestADWISEAssignmentsMatchPartitionMajor replays the old window flush —
// full (edge × partition) scan, strictly-greater wins — against the
// candidate-iterated flush, including the assignment order.
func TestADWISEAssignmentsMatchPartitionMajor(t *testing.T) {
	const window = 16
	for gname, g := range equivGraphs() {
		for _, k := range equivKs() {
			col := &part.Collect{}
			algo := &stream.ADWISE{Window: window}
			algo.SetSink(col)
			if _, err := algo.Partition(g, k); err != nil {
				t.Fatal(err)
			}

			ref := NewRefState(g.NumVertices(), k)
			deg := make([]int32, g.NumVertices())
			capacity := RefCapFor(1.05, g.NumEdges(), k)
			var want []part.TaggedEdge
			var buf []graph.Edge
			flushOne := func() {
				maxLoad, minLoad := ref.LoadBounds()
				bestI, bestP, bestS := -1, -1, math.Inf(-1)
				for i, e := range buf {
					for p := 0; p < k; p++ {
						if ref.Counts[p] >= capacity {
							continue
						}
						s := RefHDRFScore(ref, ref, e.U, e.V, deg[e.U], deg[e.V], p, stream.DefaultLambda, maxLoad, minLoad)
						if s > bestS {
							bestI, bestP, bestS = i, p, s
						}
					}
				}
				if bestI < 0 {
					bestI, bestP = 0, RefArgmin(ref.Counts)
				}
				e := buf[bestI]
				buf[bestI] = buf[len(buf)-1]
				buf = buf[:len(buf)-1]
				ref.Assign(e.U, e.V, bestP)
				want = append(want, part.TaggedEdge{E: e, P: bestP})
			}
			err := g.Edges(func(u, v graph.V) bool {
				deg[u]++
				deg[v]++
				buf = append(buf, graph.Edge{U: u, V: v})
				if len(buf) >= window {
					flushOne()
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			for len(buf) > 0 {
				flushOne()
			}
			checkSameAssignments(t, "ADWISE/"+gname, col.Edges, want)
		}
	}
}

// TestInformedHDRFMatchesPartitionMajor covers HEP's streaming phase: both
// sides start from identical warm replica state (as NE++ would leave it) and
// must place every E_h2h-style edge identically.
func TestInformedHDRFMatchesPartitionMajor(t *testing.T) {
	g := gen.CommunityPowerLaw(1200, 20, 6, 0.25, 304)
	n := g.NumVertices()
	deg, m, err := graph.Degrees(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range equivKs() {
		res := part.NewResult(n, k)
		ref := NewRefState(n, k)
		for v := 0; v < n; v++ { // warm state: vertices striped over partitions
			p := v % k
			res.Warm(graph.V(v), p)
			ref.Reps[p].Set(graph.V(v))
		}
		col := &part.Collect{}
		res.Sink = col
		err := stream.RunHDRFParallel(g, res, deg, stream.DefaultLambda, 1.0, m, shard.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}

		capacity := RefCapFor(1.0, m, k)
		var want []part.TaggedEdge
		err = g.Edges(func(u, v graph.V) bool {
			p := RefHDRFArgmax(ref, ref, u, v, deg[u], deg[v], stream.DefaultLambda, capacity)
			if p < 0 {
				p = RefArgmin(ref.Counts)
			}
			ref.Assign(u, v, p)
			want = append(want, part.TaggedEdge{E: graph.Edge{U: u, V: v}, P: p})
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		checkSameAssignments(t, "informed HDRF", col.Edges, want)
	}
}

// TestRestreamMatchesPartitionMajor covers the re-streaming pass: a second
// pass scoring affinity against a frozen prior result's table.
func TestRestreamMatchesPartitionMajor(t *testing.T) {
	g := gen.CommunityPowerLaw(1200, 20, 6, 0.25, 305)
	n := g.NumVertices()
	deg, m, err := graph.Degrees(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{7, 32, 100} {
		col := &part.Collect{}
		algo := &restream.Restream{Passes: 2}
		algo.SetSink(col)
		if _, err := algo.Partition(g, k); err != nil {
			t.Fatal(err)
		}

		// Reference pass 1: plain HDRF with exact degrees.
		state := NewRefState(n, k)
		capacity := RefCapFor(1.05, m, k)
		err := g.Edges(func(u, v graph.V) bool {
			p := RefHDRFArgmax(state, state, u, v, deg[u], deg[v], stream.DefaultLambda, capacity)
			if p < 0 {
				p = RefArgmin(state.Counts)
			}
			state.Assign(u, v, p)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		// Reference pass 2: affinity against frozen pass-1 state, loads from
		// the result being built.
		next := NewRefState(n, k)
		var want []part.TaggedEdge
		err = g.Edges(func(u, v graph.V) bool {
			p := RefHDRFArgmax(next, state, u, v, deg[u], deg[v], stream.DefaultLambda, capacity)
			if p < 0 {
				p = RefArgmin(next.Counts)
			}
			next.Assign(u, v, p)
			want = append(want, part.TaggedEdge{E: graph.Edge{U: u, V: v}, P: p})
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		checkSameAssignments(t, "ReHDRF-2", col.Edges, want)
	}
}

// TestMetricsBitIdenticalAcrossRepresentations runs EVERY algorithm in the
// conformance matrix, rebuilds the old partition-major representation from
// the sinked assignments, and checks the metrics the new vertex-major table
// derives — RF, balance, vertex counts, replica counts — are bit-identical.
// It also re-asserts exactly-once sink delivery for each algorithm.
func TestMetricsBitIdenticalAcrossRepresentations(t *testing.T) {
	g := gen.CommunityPowerLaw(1500, 25, 6, 0.2, 306)
	cases := allAlgorithms()
	cases = append(cases, algoCase{&restream.Restream{Passes: 2}, 1.05, 2})
	for _, tc := range cases {
		for _, k := range []int{5, 16} {
			col := &part.Collect{}
			res, err := runWithSink(tc.algo, g, k, col)
			if err != nil {
				t.Fatalf("%s: %v", tc.algo.Name(), err)
			}
			if err := CheckExactlyOnce(g, res, col); err != nil {
				t.Fatalf("%s: exactly-once: %v", tc.algo.Name(), err)
			}

			// Rebuild the partition-major representation from the sink.
			ref := NewRefState(res.N, k)
			for _, te := range col.Edges {
				ref.Assign(te.E.U, te.E.V, te.P)
			}
			// RF exactly as the old Result computed it.
			covered := bitset.New(res.N)
			total := 0
			for _, rep := range ref.Reps {
				total += rep.Count()
				covered.Union(rep)
			}
			wantRF := 0.0
			if c := covered.Count(); c > 0 {
				wantRF = float64(total) / float64(c)
			}
			if got := res.ReplicationFactor(); got != wantRF {
				t.Errorf("%s k=%d: RF %v != partition-major %v", tc.algo.Name(), k, got, wantRF)
			}
			// Balance from the partition-major counts.
			max, _ := ref.LoadBounds()
			wantBal := float64(max) * float64(k) / float64(res.M)
			if got := res.Balance(); got != wantBal {
				t.Errorf("%s k=%d: balance %v != %v", tc.algo.Name(), k, got, wantBal)
			}
			// Vertex counts per partition and replica counts per vertex.
			vc := res.VertexCounts()
			for p := range ref.Reps {
				if vc[p] != ref.Reps[p].Count() {
					t.Errorf("%s k=%d: |V(p_%d)| = %d, want %d", tc.algo.Name(), k, p, vc[p], ref.Reps[p].Count())
				}
			}
			rc := res.ReplicaCounts()
			wantRC := make([]int32, res.N)
			for _, rep := range ref.Reps {
				rep.Range(func(v uint32) bool {
					wantRC[v]++
					return true
				})
			}
			for v := range rc {
				if rc[v] != wantRC[v] {
					t.Errorf("%s k=%d: replicas(%d) = %d, want %d", tc.algo.Name(), k, v, rc[v], wantRC[v])
					break
				}
			}
		}
	}
}
