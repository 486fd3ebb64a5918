package hep

import (
	"errors"
	"math"
	"path/filepath"
	"runtime"
	"testing"

	"hep/internal/graph"
	"hep/internal/ooc"
	"hep/internal/stream"
)

func TestPartitionEveryAlgorithm(t *testing.T) {
	g := Dataset("LJ", 0.05)
	parallel := map[string]bool{}
	for _, name := range ParallelAlgorithms() {
		parallel[name] = true
	}
	for _, name := range Algorithms() {
		workers := 1
		if parallel[name] {
			workers = 2
		} else {
			// No parallel path: Workers > 1 must be a clear error, never a
			// silent sequential fallback.
			if _, err := Partition(g, Config{Algorithm: name, K: 8, Tau: 10, Seed: 1, Workers: 2}); err == nil {
				t.Errorf("%s: Workers=2 accepted despite having no parallel path", name)
			}
		}
		res, err := Partition(g, Config{Algorithm: name, K: 8, Tau: 10, Seed: 1, Workers: workers})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.M != g.NumEdges() {
			t.Errorf("%s: assigned %d of %d edges", name, res.M, g.NumEdges())
		}
		if rf := res.ReplicationFactor(); rf < 1 {
			t.Errorf("%s: RF %v < 1", name, rf)
		}
	}
}

// TestOneWorkerDeterministic is the determinism contract of Workers: 1:
// every algorithm, run twice with the same seed, delivers the identical
// assignment sequence to its sink.
func TestOneWorkerDeterministic(t *testing.T) {
	g := Dataset("OK", 0.05)
	type assignment struct {
		u, v uint32
		p    int
	}
	for _, name := range Algorithms() {
		run := func() []assignment {
			var seq []assignment
			sink := sinkFunc(func(u, v uint32, p int) { seq = append(seq, assignment{u, v, p}) })
			cfg := Config{Algorithm: name, K: 8, Tau: 2, Seed: 7, Window: 64, Workers: 1, Sink: sink}
			if _, err := Partition(g, cfg); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return seq
		}
		first, second := run(), run()
		if int64(len(first)) != g.NumEdges() || len(second) != len(first) {
			t.Fatalf("%s: sink saw %d then %d assignments of %d edges", name, len(first), len(second), g.NumEdges())
		}
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("%s: assignment %d differs between runs: %v then %v", name, i, first[i], second[i])
			}
		}
	}
}

func TestWorkersValidation(t *testing.T) {
	g := Dataset("LJ", 0.03)
	// Negative Workers rejected everywhere a Config enters the API.
	if _, err := New(Config{Algorithm: AlgoHDRF, K: 4, Workers: -1}); err == nil {
		t.Error("New accepted Workers=-1")
	}
	if _, err := Partition(g, Config{Algorithm: AlgoHDRF, K: 4, Workers: -1}); err == nil {
		t.Error("Partition accepted Workers=-1")
	}
	if _, err := FitBudget(g, Config{Algorithm: AlgoHEP, K: 4, Workers: -2, MemBudget: 1 << 40}); err == nil {
		t.Error("FitBudget accepted Workers=-2")
	}
	if _, err := New(Config{Algorithm: AlgoHDRF, K: 4, Lambda: -1}); err == nil {
		t.Error("New accepted Lambda=-1")
	}
	// ADWISE is the canonical order-sensitive algorithm with no parallel
	// path: Workers > 1 is a clear error, Workers ≤ 1 runs.
	if _, err := Partition(g, Config{Algorithm: AlgoADWISE, K: 4, Workers: 2}); err == nil {
		t.Error("ADWISE accepted Workers=2")
	}
	if _, err := Partition(g, Config{Algorithm: AlgoADWISE, K: 4, Workers: 1}); err != nil {
		t.Errorf("ADWISE rejected Workers=1: %v", err)
	}
	// Parallel-capable algorithms take Workers > 1 and still assign every
	// edge exactly once.
	for _, name := range ParallelAlgorithms() {
		res, err := Partition(g, Config{Algorithm: name, K: 4, Tau: 10, Seed: 1, Workers: 3})
		if err != nil {
			t.Fatalf("%s Workers=3: %v", name, err)
		}
		if res.M != g.NumEdges() {
			t.Errorf("%s Workers=3: assigned %d of %d edges", name, res.M, g.NumEdges())
		}
	}
}

// TestAlphaInfMatchesK pins the capacity of an out-of-range α: at α = +Inf
// the capacity-bounded streaming passes (HDRF, re-HDRF, HEP's h2h phase,
// Greedy, Random and ADWISE) place every edge exactly as at α = k, where
// ⌈α·m/k⌉ = m already bounds nothing. A NaN α is rejected.
func TestAlphaInfMatchesK(t *testing.T) {
	g := Dataset("OK", 0.1)
	const k = 8
	type assignment struct {
		u, v uint32
		p    int
	}
	for _, name := range []string{AlgoHDRF, AlgoRestream, AlgoHEP, AlgoGreedy, AlgoRandom, AlgoADWISE} {
		run := func(alpha float64) []assignment {
			var seq []assignment
			sink := sinkFunc(func(u, v uint32, p int) { seq = append(seq, assignment{u, v, p}) })
			// τ = 1 leaves HEP's h2h phase edges to place.
			cfg := Config{Algorithm: name, K: k, Alpha: alpha, Tau: 1, Seed: 3, Window: 16, Sink: sink}
			if _, err := Partition(g, cfg); err != nil {
				t.Fatalf("%s α=%v: %v", name, alpha, err)
			}
			return seq
		}
		want, got := run(k), run(math.Inf(1))
		if int64(len(got)) != g.NumEdges() || len(want) != len(got) {
			t.Fatalf("%s: α=+Inf placed %d edges, α=k %d, of %d", name, len(got), len(want), g.NumEdges())
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: assignment %d is %v at α=+Inf, %v at α=k", name, i, got[i], want[i])
			}
		}
	}
	if _, err := New(Config{Algorithm: AlgoHDRF, K: k, Alpha: math.NaN()}); err == nil {
		t.Error("New accepted Alpha=NaN")
	}
}

func TestPartitionValidation(t *testing.T) {
	g := NewGraph(0, []Edge{{U: 0, V: 1}})
	if _, err := Partition(g, Config{Algorithm: "bogus", K: 2}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := Partition(g, Config{K: 0}); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestNewGraphInference(t *testing.T) {
	g := NewGraph(0, []Edge{{U: 2, V: 7}})
	if g.NumVertices() != 8 {
		t.Fatalf("inferred n = %d", g.NumVertices())
	}
	g2 := NewGraph(20, []Edge{{U: 2, V: 7}})
	if g2.NumVertices() != 20 {
		t.Fatalf("explicit n = %d", g2.NumVertices())
	}
}

func TestSinkThroughConfig(t *testing.T) {
	g := Dataset("LJ", 0.03)
	var count int64
	sink := sinkFunc(func(u, v uint32, p int) { count++ })
	res, err := Partition(g, Config{Algorithm: AlgoHEP, K: 4, Tau: 10, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	if count != res.M {
		t.Fatalf("sink saw %d assignments, result has %d", count, res.M)
	}
}

type sinkFunc func(u, v uint32, p int)

func (f sinkFunc) Assign(u, v uint32, p int) { f(u, v, p) }

// reportedCount streams g's edges but reports m as its edge count. It is a
// plain EdgeStream: no slab lending, no slice access.
type reportedCount struct {
	g *MemGraph
	m int64
}

func (s reportedCount) NumVertices() int                          { return s.g.NumVertices() }
func (s reportedCount) NumEdges() int64                           { return s.m }
func (s reportedCount) Edges(yield func(u, v graph.V) bool) error { return s.g.Edges(yield) }

// TestNEIgnoresReportedEdgeCount pins NE and SNE through the facade to the
// edges they read: a stream reporting a negative count or 0 ("count
// unknown") delivers the MemGraph's own sink sequence. A negative count
// used to panic in NE's edge-list allocation.
func TestNEIgnoresReportedEdgeCount(t *testing.T) {
	g := Dataset("OK", 0.05)
	type assignment struct {
		u, v uint32
		p    int
	}
	for _, name := range []string{AlgoNE, AlgoSNE} {
		run := func(src EdgeStream) []assignment {
			var seq []assignment
			sink := sinkFunc(func(u, v uint32, p int) { seq = append(seq, assignment{u, v, p}) })
			if _, err := Partition(src, Config{Algorithm: name, K: 8, Seed: 1, Workers: 1, Sink: sink}); err != nil {
				t.Fatalf("%s, %d edges reported: %v", name, src.NumEdges(), err)
			}
			return seq
		}
		want := run(g)
		for _, reported := range []int64{-1, 0} {
			got := run(reportedCount{g: g, m: reported})
			if len(got) != len(want) {
				t.Fatalf("%s, %d edges reported: sink saw %d edges, honest count %d", name, reported, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s, %d edges reported: assignment %d is %v, honest count %v", name, reported, i, got[i], want[i])
				}
			}
		}
	}
}

func TestBinaryFileRoundTripThroughFacade(t *testing.T) {
	g := Dataset("LJ", 0.03)
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := WriteBinaryFile(path, g.E); err != nil {
		t.Fatal(err)
	}
	edges, err := ReadBinaryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != len(g.E) {
		t.Fatalf("%d edges, want %d", len(edges), len(g.E))
	}
	// n ≤ 0 discovers the vertex count.
	for _, n := range []int{0, -1} {
		s, err := OpenBinaryFile(path, n)
		if err != nil {
			t.Fatal(err)
		}
		if s.NumVertices() != g.NumVertices() || s.NumEdges() != g.NumEdges() {
			t.Fatalf("OpenBinaryFile(n=%d): n=%d m=%d, want %d, %d", n, s.NumVertices(), s.NumEdges(), g.NumVertices(), g.NumEdges())
		}
	}
	stream, err := OpenBinaryFile(path, g.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	// Partition straight from the file stream (multi-pass).
	res, err := Partition(stream, Config{Algorithm: AlgoHEP, K: 8, Tau: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.M != g.NumEdges() {
		t.Fatalf("file-stream partitioning assigned %d of %d edges", res.M, g.NumEdges())
	}
}

func TestChooseTauFacade(t *testing.T) {
	g := Dataset("OK", 0.05)
	cands := []float64{100, 10, 1}
	tau, ok, err := ChooseTau(g, 32, cands, 1<<40)
	if err != nil || !ok || tau != 100 {
		t.Fatalf("tau=%v ok=%v err=%v", tau, ok, err)
	}
	full, err := EstimateMemory(g, 32, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := EstimateMemory(g, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pruned >= full {
		t.Fatalf("pruned estimate %d not below full %d", pruned, full)
	}
	// Partitioning with the chosen τ must actually respect quality order:
	// a feasibility smoke run.
	res, err := Partition(g, Config{Algorithm: AlgoHEP, K: 32, Tau: tau})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReplicationFactor() < 1 {
		t.Fatal("bad RF")
	}
}

func TestSummarizeFacade(t *testing.T) {
	g := Dataset("LJ", 0.03)
	res, err := Partition(g, Config{Algorithm: AlgoHDRF, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize("hdrf", res)
	if s.Algorithm != "hdrf" || s.K != 4 || s.ReplicationFactor < 1 {
		t.Fatalf("summary %+v", s)
	}
}

func TestDatasetNames(t *testing.T) {
	names := DatasetNames()
	if len(names) != 10 {
		t.Fatalf("datasets = %v", names)
	}
}

func TestSinkThroughConfigBuffered(t *testing.T) {
	g := Dataset("LJ", 0.03)
	var count int64
	sink := sinkFunc(func(u, v uint32, p int) { count++ })
	res, err := Partition(g, Config{Algorithm: AlgoBuffered, K: 4, Buffer: 1024, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	if count != res.M {
		t.Fatalf("sink saw %d assignments, result has %d", count, res.M)
	}
}

// TestWorkersMatchOneWorker pins one placement path per algorithm through
// the facade: HEP (τ 1 and 5, so the h2h phase places edges), NE++,
// re-HDRF and Buffered accept any Workers and deliver at Workers 2 and 4
// exactly the Workers 1 sink sequence; HDRF at Workers 2 and 4, and at
// Workers 0 on one core, delivers exactly the sequence of one-worker HDRF
// with the exact-degree pre-pass, so its default output does not depend on
// the host's core count.
func TestWorkersMatchOneWorker(t *testing.T) {
	type assignment struct {
		u, v uint32
		p    int
	}
	rows := []struct {
		name string
		cfg  Config
		// ref is the algorithm the row must match; nil = cfg at Workers 1.
		ref interface {
			Algorithm
			SetSink(Sink)
		}
	}{
		{"hep-tau1", Config{Algorithm: AlgoHEP, Tau: 1}, nil},
		{"hep-tau5", Config{Algorithm: AlgoHEP, Tau: 5}, nil},
		{"ne++", Config{Algorithm: AlgoNEPP}, nil},
		{"rehdrf", Config{Algorithm: AlgoRestream}, nil},
		{"buffered", Config{Algorithm: AlgoBuffered, Buffer: 1 << 14}, nil},
		{"hdrf", Config{Algorithm: AlgoHDRF}, &stream.HDRF{ExactDegrees: true}},
	}
	for _, name := range []string{"OK", "TW", "LJ"} {
		g := Dataset(name, 0.1)
		for _, k := range []int{32, 128} {
			for _, row := range rows {
				var seq []assignment
				sink := sinkFunc(func(u, v uint32, p int) { seq = append(seq, assignment{u, v, p}) })
				run := func(workers int) []assignment {
					seq = nil
					cfg := row.cfg
					cfg.K, cfg.Workers, cfg.Sink = k, workers, sink
					if _, err := Partition(g, cfg); err != nil {
						t.Fatalf("%s %s k=%d W=%d: %v", row.name, name, k, workers, err)
					}
					return seq
				}
				var want []assignment
				if row.ref == nil {
					want = run(1)
				} else {
					row.ref.SetSink(sink)
					if _, err := row.ref.Partition(g, k); err != nil {
						t.Fatalf("%s %s k=%d reference: %v", row.name, name, k, err)
					}
					want = seq
				}
				if int64(len(want)) != g.NumEdges() {
					t.Fatalf("%s %s k=%d: sink saw %d of %d edges", row.name, name, k, len(want), g.NumEdges())
				}
				counts := []int{2, 4}
				if row.cfg.Algorithm == AlgoHDRF {
					counts = append(counts, 0) // run on one core below
				}
				for _, workers := range counts {
					var got []assignment
					func() {
						if workers == 0 {
							defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
						}
						got = run(workers)
					}()
					if len(got) != len(want) {
						t.Fatalf("%s %s k=%d W=%d: %d assignments, reference %d", row.name, name, k, workers, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s %s k=%d W=%d: assignment %d is %v, reference %v", row.name, name, k, workers, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

func TestPartitionFile(t *testing.T) {
	g := Dataset("OK", 0.1)
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := WriteBinaryFile(path, g.E); err != nil {
		t.Fatal(err)
	}

	// Default algorithm (HEP) with a generous budget: τ is chosen, E_h2h
	// spills to the compressed run store, every edge is assigned.
	res, err := PartitionFile(path, Config{K: 8, MemBudget: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	if res.M != g.NumEdges() || res.N != g.NumVertices() {
		t.Fatalf("n=%d m=%d, want n=%d m=%d", res.N, res.M, g.NumVertices(), g.NumEdges())
	}

	// Out-of-core algorithm with a buffer budget.
	res, err = PartitionFile(path, Config{Algorithm: AlgoBuffered, K: 8, MemBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.M != g.NumEdges() {
		t.Fatalf("buffered assigned %d of %d edges", res.M, g.NumEdges())
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}

	// Errors: bad k, impossible budgets, budget on an algorithm that would
	// silently ignore it, missing file.
	if _, err := PartitionFile(path, Config{K: 0}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := PartitionFile(path, Config{Algorithm: AlgoHDRF, K: 4, MemBudget: 1 << 30}); err == nil {
		t.Fatal("budget on a budget-less algorithm accepted")
	}
	if _, err := PartitionFile(path, Config{Algorithm: AlgoBuffered, K: 4, MemBudget: 10}); err == nil {
		t.Fatal("sub-edge buffer budget accepted")
	}
	if _, err := PartitionFile(filepath.Join(t.TempDir(), "missing.bin"), Config{K: 4}); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestFitBudget(t *testing.T) {
	g := Dataset("OK", 0.05)

	// HEP: the largest fitting τ wins, overriding an explicit Tau.
	cfg, err := FitBudget(g, Config{Algorithm: AlgoHEP, K: 32, Tau: 1, MemBudget: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Tau != 100 || cfg.MemBudget != 0 {
		t.Fatalf("resolved cfg: tau=%v budget=%d", cfg.Tau, cfg.MemBudget)
	}

	// Buffered: an explicit Buffer larger than the budget allows is
	// clamped — the budget is the contract — and the budget buys the same
	// buffer at every worker count, since W > 1 adds no batch state.
	for _, w := range []int{1, 2, 4} {
		cfg, err = FitBudget(g, Config{Algorithm: AlgoBuffered, K: 32, Buffer: 1 << 30, Workers: w, MemBudget: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if want := ooc.BufferForBudget(1 << 20); cfg.Buffer != want {
			t.Fatalf("W=%d: buffer %d, want BufferForBudget's %d", w, cfg.Buffer, want)
		}
	}
	// A smaller explicit Buffer already fits and is kept.
	cfg, err = FitBudget(g, Config{Algorithm: AlgoBuffered, K: 32, Buffer: 10, MemBudget: 1 << 20})
	if err != nil || cfg.Buffer != 10 {
		t.Fatalf("small explicit buffer not kept: %d (%v)", cfg.Buffer, err)
	}

	// Algorithms that would silently ignore the budget are rejected.
	if _, err := FitBudget(g, Config{Algorithm: AlgoDBH, K: 32, MemBudget: 1 << 20}); err == nil {
		t.Fatal("budget accepted for a budget-less algorithm")
	}
	// Zero budget is a no-op.
	cfg, err = FitBudget(g, Config{Algorithm: AlgoDBH, K: 32})
	if err != nil || cfg.Algorithm != AlgoDBH {
		t.Fatalf("zero budget not a no-op: %+v (%v)", cfg, err)
	}

	// Partition honors MemBudget too — never silently ignored.
	if _, err := Partition(g, Config{Algorithm: AlgoHDRF, K: 4, MemBudget: 1 << 20}); err == nil {
		t.Fatal("Partition accepted a budget for a budget-less algorithm")
	}
	res, err := Partition(g, Config{Algorithm: AlgoHEP, K: 8, MemBudget: 1 << 40})
	if err != nil || res.M != g.NumEdges() {
		t.Fatalf("budgeted Partition: %v", err)
	}
}

func TestOpenChunkedFacade(t *testing.T) {
	g := Dataset("LJ", 0.03)
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := WriteBinaryFile(path, g.E); err != nil {
		t.Fatal(err)
	}
	src, err := OpenChunked(path, 0, 128)
	if err != nil {
		t.Fatal(err)
	}
	if src.NumVertices() != g.NumVertices() || src.NumEdges() != g.NumEdges() {
		t.Fatalf("n=%d m=%d", src.NumVertices(), src.NumEdges())
	}
	res, err := Partition(src, Config{Algorithm: AlgoBuffered, K: 8, Buffer: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if res.M != g.NumEdges() {
		t.Fatalf("assigned %d of %d edges", res.M, g.NumEdges())
	}
}

// TestHDRFVertexRangeError: HDRF over an edge naming a vertex at or past the
// stream's vertex count returns graph.ErrVertexRange at every worker count,
// never an index panic, and the sink sees no edge with such an id — for an
// edge list declaring too few vertices and for a file opened without vertex
// discovery (NumVertices 0).
func TestHDRFVertexRangeError(t *testing.T) {
	edges := []Edge{{U: 0, V: 1}, {U: 1, V: 9}, {U: 2, V: 3}}
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := WriteBinaryFile(path, edges); err != nil {
		t.Fatal(err)
	}
	undiscovered, err := OpenChunked(path, -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	srcs := map[string]EdgeStream{"n=5 edge list": NewGraph(5, edges), "undiscovered file": undiscovered}
	for _, w := range []int{1, 2} {
		for name, src := range srcs {
			n := src.NumVertices()
			sink := sinkFunc(func(u, v uint32, p int) {
				if int(u) >= n || int(v) >= n {
					t.Errorf("W=%d %s: sink got (%d,%d) with n=%d", w, name, u, v, n)
				}
			})
			_, err := Partition(src, Config{Algorithm: AlgoHDRF, K: 2, Workers: w, Sink: sink})
			if !errors.Is(err, graph.ErrVertexRange) {
				t.Errorf("W=%d %s: err = %v, want ErrVertexRange", w, name, err)
			}
		}
	}
}

// TestEveryAlgorithmRejectsVertexRange runs every algorithm over an edge to
// vertex 9 on a 5-vertex graph: each must return an error wrapping
// graph.ErrVertexRange, never panic, at W=1 and at W=2 where the algorithm
// has a parallel path. Buffered is exempt: it takes its id domain from its
// own discovery scan.
func TestEveryAlgorithmRejectsVertexRange(t *testing.T) {
	edges := []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 9}, {U: 3, V: 4}}
	parallel := map[string]bool{}
	for _, name := range ParallelAlgorithms() {
		parallel[name] = true
	}
	for _, name := range Algorithms() {
		if name == AlgoBuffered {
			continue
		}
		for _, w := range []int{1, 2} {
			if w > 1 && !parallel[name] {
				continue
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s W=%d: panic: %v", name, w, r)
					}
				}()
				_, err := Partition(NewGraph(5, edges), Config{Algorithm: name, K: 2, Workers: w, Seed: 1})
				if !errors.Is(err, graph.ErrVertexRange) {
					t.Errorf("%s W=%d: err = %v, want ErrVertexRange", name, w, err)
				}
			}()
		}
	}
}
