package hep

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (regenerating its rows via internal/expt) plus
// ablation benchmarks that isolate one design decision each: lazy edge
// removal, sequential seeding, informed streaming, the τ pre-computation
// and HDRF's degree source.
//
// Benchmarks run the experiments at a reduced dataset scale so the whole
// suite finishes on a laptop; `go run ./cmd/hep-bench -scale 1` prints the
// full-size tables.

import (
	"fmt"
	"math"
	"testing"

	"hep/internal/core"
	"hep/internal/expt"
	"hep/internal/gen"
	"hep/internal/graph"
	"hep/internal/memmodel"
	"hep/internal/ne"
	"hep/internal/ooc"
	"hep/internal/part"
	"hep/internal/parttest"
	"hep/internal/shard"
	"hep/internal/stream"
)

const benchScale = 0.12

func benchConfig(datasets ...string) expt.Config {
	return expt.Config{Scale: benchScale, Datasets: datasets, Ks: []int{4, 32}}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.Figure2(benchConfig("LJ", "WI")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.Figure5(benchConfig("OK", "IT", "TW")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.Figure7(benchConfig("OK", "IT", "TW")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.Figure8(benchConfig("OK")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.Figure9(benchConfig("OK")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.Table2(benchConfig("OK", "IT", "TW")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.Table4(expt.Config{Scale: 0.06, Datasets: []string{"OK"}}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.Table5(benchConfig("OK", "IT")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.Table6(benchConfig("OK")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRefine regenerates the refinement table (HDRF baseline vs the
// boundary-move and split-merge post-passes); `hep-bench -exp refine`
// prints it at full scale.
func BenchmarkRefine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := expt.TableRefine(benchConfig("OK", "LJ")); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Per-algorithm microbenchmarks on a fixed power-law graph ---

func benchGraph() *MemGraph {
	return gen.MustDataset("OK").Build(benchScale)
}

func BenchmarkPartitionHEP100(b *testing.B) { benchPartition(b, Config{Algorithm: AlgoHEP, Tau: 100}) }
func BenchmarkPartitionHEP10(b *testing.B)  { benchPartition(b, Config{Algorithm: AlgoHEP, Tau: 10}) }
func BenchmarkPartitionHEP1(b *testing.B)   { benchPartition(b, Config{Algorithm: AlgoHEP, Tau: 1}) }
func BenchmarkPartitionNE(b *testing.B)     { benchPartition(b, Config{Algorithm: AlgoNE, Seed: 1}) }
func BenchmarkPartitionSNE(b *testing.B)    { benchPartition(b, Config{Algorithm: AlgoSNE}) }
func BenchmarkPartitionHDRF(b *testing.B)   { benchPartition(b, Config{Algorithm: AlgoHDRF}) }
func BenchmarkPartitionDBH(b *testing.B)    { benchPartition(b, Config{Algorithm: AlgoDBH}) }
func BenchmarkPartitionDNE(b *testing.B) {
	benchPartition(b, Config{Algorithm: AlgoDNE, Workers: 2, Seed: 1})
}
func BenchmarkPartitionMETIS(b *testing.B) { benchPartition(b, Config{Algorithm: AlgoMETIS, Seed: 1}) }

func benchPartition(b *testing.B, cfg Config) {
	b.Helper()
	g := benchGraph()
	cfg.K = 32
	b.SetBytes(g.NumEdges() * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Partition(g, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks ---

// BenchmarkAblationLazyVsEager compares NE++ (lazy edge removal, pruned
// CSR) against the reference NE (eager invalidation, edge array) on the
// same input — the §5.4 observation (1) run-time gap.
func BenchmarkAblationLazyVsEager(b *testing.B) {
	g := benchGraph()
	b.Run("NE++-lazy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h := &core.HEP{Tau: math.Inf(1)}
			if _, err := h.Partition(g, 32); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("NE-eager", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a := &ne.NE{Seed: 1}
			if _, err := a.Partition(g, 32); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationInitStrategy compares sequential seed search (NE++,
// §3.2.3) against randomized selection (reference NE) on a fragmented
// graph, where initialization runs often.
func BenchmarkAblationInitStrategy(b *testing.B) {
	g := gen.DisconnectedComponents(64, 200, 3, 9)
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a := &ne.NE{Seed: 1, SequentialInit: true}
			if _, err := a.Partition(g, 32); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("random", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a := &ne.NE{Seed: 1}
			if _, err := a.Partition(g, 32); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationStreamingPhase compares HEP's informed HDRF streaming
// against random streaming at τ=1, where the streaming phase dominates
// (§5.4 observation (3)).
func BenchmarkAblationStreamingPhase(b *testing.B) {
	g := benchGraph()
	b.Run("informed-hdrf", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h := &core.HEP{Tau: 1}
			if _, err := h.Partition(g, 32); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("random", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h := &core.HEP{Tau: 1, RandomStream: true, Seed: 1}
			if _, err := h.Partition(g, 32); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationTauSweep measures the cost of the §4.4 τ footprint
// pre-computation (Table 2's workload) separately from partitioning.
func BenchmarkAblationTauSweep(b *testing.B) {
	g := benchGraph()
	taus := []float64{100, 50, 20, 10, 5, 2, 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := memmodel.TauSweep(g, 32, taus); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationHDRFDegrees compares streamed partial degrees against an
// exact-degree pre-pass in standalone HDRF.
func BenchmarkAblationHDRFDegrees(b *testing.B) {
	g := benchGraph()
	b.Run("partial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (&stream.HDRF{}).Partition(g, 32); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (&stream.HDRF{ExactDegrees: true}).Partition(g, 32); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBufferedVsHDRF compares the out-of-core buffered partitioner
// against plain HDRF on the OK and TW power-law stand-ins at k=32,
// reporting replication factor alongside throughput (the buffered
// partitioner trades a second pass and batch bookkeeping for RF).
func BenchmarkBufferedVsHDRF(b *testing.B) {
	for _, name := range []string{"OK", "TW"} {
		g := gen.MustDataset(name).Build(benchScale)
		buffer := int(g.NumEdges() / 4)
		b.Run(name+"/buffered", func(b *testing.B) {
			b.SetBytes(g.NumEdges() * 8)
			var rf float64
			for i := 0; i < b.N; i++ {
				a := &ooc.Buffered{BufferEdges: buffer}
				res, err := a.Partition(g, 32)
				if err != nil {
					b.Fatal(err)
				}
				rf = res.ReplicationFactor()
			}
			b.ReportMetric(rf, "rf")
		})
		b.Run(name+"/hdrf", func(b *testing.B) {
			b.SetBytes(g.NumEdges() * 8)
			var rf float64
			for i := 0; i < b.N; i++ {
				res, err := (&stream.HDRF{}).Partition(g, 32)
				if err != nil {
					b.Fatal(err)
				}
				rf = res.ReplicationFactor()
			}
			b.ReportMetric(rf, "rf")
		})
	}
}

// BenchmarkHDRFPlacement measures the per-edge HDRF placement cost of the
// vertex-major replica table (class-min scorer + incremental load tracker)
// against the pre-refactor partition-major representation (k replica
// bitsets, O(k) probes and an O(k) loadBounds rescan per edge), on the TW
// power-law stand-in. The gap widens with k: the old loop scores all k
// partitions, the new one reads ⌈k/64⌉ words per endpoint, compares the
// loads of the partitions hosting an endpoint, and scores at most four.
func BenchmarkHDRFPlacement(b *testing.B) {
	g := gen.MustDataset("TW").Build(benchScale)
	deg, m, err := graph.Degrees(g)
	if err != nil {
		b.Fatal(err)
	}
	n := g.NumVertices()
	lambda := stream.DefaultLambda
	for _, k := range []int{32, 128, 256} {
		capacity := int64(math.Ceil(1.05 * float64(m) / float64(k)))
		b.Run(fmt.Sprintf("k=%d/new", k), func(b *testing.B) {
			b.SetBytes(m * 8)
			for i := 0; i < b.N; i++ {
				res := part.NewResult(n, k)
				err := stream.RunHDRFParallel(g, res, deg, lambda, 1.05, m, shard.Options{Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*m), "ns/edge")
		})
		b.Run(fmt.Sprintf("k=%d/old", k), func(b *testing.B) {
			b.SetBytes(m * 8)
			for i := 0; i < b.N; i++ {
				// parttest.RefState is the pre-refactor code kept verbatim —
				// the same baseline the equivalence tests pin the new path
				// to bit-for-bit.
				ref := parttest.NewRefState(n, k)
				err := g.Edges(func(u, v graph.V) bool {
					p := parttest.RefHDRFArgmax(ref, ref, u, v, deg[u], deg[v], lambda, capacity)
					if p < 0 {
						p = parttest.RefArgmin(ref.Counts)
					}
					ref.Assign(u, v, p)
					return true
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*m), "ns/edge")
		})
	}
}

// BenchmarkParallelHDRF measures the parallel sharded streaming engine
// against one worker (sequential HDRF) on the TW power-law stand-in at
// k=32: ns/edge and replication factor per worker count. Speedup tracks the
// cores actually available (GOMAXPROCS) — on a multi-core host W=8
// approaches linear scaling; on a single core the W > 1 rows price the
// engine's batching overhead. `hep-bench -exp shard` prints the same table
// across datasets and k.
func BenchmarkParallelHDRF(b *testing.B) {
	g := gen.MustDataset("TW").Build(benchScale)
	deg, m, err := graph.Degrees(g)
	if err != nil {
		b.Fatal(err)
	}
	n := g.NumVertices()
	const k = 32
	run := func(b *testing.B, workers int) {
		b.SetBytes(m * 8)
		var rf float64
		for i := 0; i < b.N; i++ {
			res := part.NewResult(n, k)
			err = stream.RunHDRFParallel(g, res, deg, stream.DefaultLambda, 1.05, m,
				shard.Options{Workers: workers})
			if err != nil {
				b.Fatal(err)
			}
			rf = res.ReplicationFactor()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*m), "ns/edge")
		b.ReportMetric(rf, "rf")
	}
	b.Run("seq", func(b *testing.B) { run(b, 1) })
	for _, w := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("W=%d", w), func(b *testing.B) { run(b, w) })
	}
}

// BenchmarkCSRBuild isolates graph-building cost (§4.1: two passes,
// O(|E|+|V|)).
func BenchmarkCSRBuild(b *testing.B) {
	g := benchGraph()
	b.SetBytes(g.NumEdges() * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EstimateMemory(g, 32, 10); err != nil {
			b.Fatal(err)
		}
	}
}
