package hep

import (
	"testing"

	"hep/internal/part"
	"hep/internal/parttest"
)

// TestRefineEveryAlgorithm drives Config.Refine across the whole algorithm
// registry: every refinable algorithm must compose with both modes and
// assign every edge exactly once; the rest must be rejected up front by New
// — the same fail-fast contract as the Workers > 1 gate — never reach the
// post-pass and panic on a missing assignment capture.
func TestRefineEveryAlgorithm(t *testing.T) {
	g := Dataset("LJ", 0.05)
	refinable := map[string]bool{}
	for _, name := range RefinableAlgorithms() {
		refinable[name] = true
	}
	for _, name := range Algorithms() {
		for _, mode := range []string{RefineMoves, RefineSplitMerge} {
			cfg := Config{Algorithm: name, K: 8, Tau: 10, Seed: 1, Refine: mode}
			if !refinable[name] {
				if _, err := Partition(g, cfg); err == nil {
					t.Errorf("%s: Refine=%q accepted despite not being refinable", name, mode)
				}
				continue
			}
			var count int64
			cfg.Sink = sinkFunc(func(u, v uint32, p int) { count++ })
			res, err := Partition(g, cfg)
			if err != nil {
				t.Fatalf("%s Refine=%q: %v", name, mode, err)
			}
			if res.M != g.NumEdges() {
				t.Errorf("%s Refine=%q: assigned %d of %d edges", name, mode, res.M, g.NumEdges())
			}
			if count != res.M {
				t.Errorf("%s Refine=%q: sink saw %d assignments, result has %d", name, mode, count, res.M)
			}
			if err := res.Validate(); err != nil {
				t.Errorf("%s Refine=%q: %v", name, mode, err)
			}
		}
	}
}

// TestRefineValidation pins the fail-fast surface of the Refine knobs at
// every Config entry point, New and FitBudget alike (the regression for the
// dead-table panic class: a bad combination must error before any run).
func TestRefineValidation(t *testing.T) {
	g := Dataset("LJ", 0.03)
	if _, err := New(Config{Algorithm: AlgoHDRF, K: 4, Refine: "frob"}); err == nil {
		t.Error("New accepted unknown refine mode")
	}
	if _, err := New(Config{Algorithm: AlgoHDRF, K: 4, Refine: RefineMoves, RefineWorkers: -1}); err == nil {
		t.Error("New accepted RefineWorkers=-1")
	}
	if _, err := New(Config{Algorithm: AlgoHDRF, K: 4, Refine: RefineMoves, RefineRounds: -1}); err == nil {
		t.Error("New accepted RefineRounds=-1")
	}
	// The non-refinable algorithms are rejected by New and by FitBudget,
	// with or without a budget set — FitBudget is the front door of the
	// paper's memory-constrained mode and must not defer the error to the
	// end of a long run.
	for _, name := range []string{AlgoDNE, AlgoADWISE} {
		if _, err := New(Config{Algorithm: name, K: 4, Refine: RefineMoves}); err == nil {
			t.Errorf("New accepted Refine for %s", name)
		}
		if _, err := FitBudget(g, Config{Algorithm: name, K: 4, Refine: RefineMoves, MemBudget: 1 << 40}); err == nil {
			t.Errorf("FitBudget accepted Refine for %s", name)
		}
		if _, err := FitBudget(g, Config{Algorithm: name, K: 4, Refine: RefineMoves}); err == nil {
			t.Errorf("FitBudget without budget accepted Refine for %s", name)
		}
	}
	// The happy path still fits a budget with refinement requested.
	if _, err := FitBudget(g, Config{Algorithm: AlgoHEP, K: 4, Refine: RefineMoves, MemBudget: 1 << 40}); err != nil {
		t.Errorf("FitBudget rejected a refinable config: %v", err)
	}
}

// TestRefineImprovesThroughFacade pins the public-API quality contract on
// the LJ stand-in: the refined run's RF is never worse than the bare run's,
// RefineWorkers=1 reproduces, and RefineWorkers 2 and 4 deliver its sink
// sequence. Every HDRF run pins Workers: 1, HDRF with streamed partial
// degrees.
func TestRefineImprovesThroughFacade(t *testing.T) {
	g := Dataset("LJ", 0.1)
	base, err := Partition(g, Config{Algorithm: AlgoHDRF, K: 16, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	type assignment struct {
		u, v uint32
		p    int
	}
	run := func(workers int) (float64, []assignment) {
		var seq []assignment
		sink := sinkFunc(func(u, v uint32, p int) { seq = append(seq, assignment{u, v, p}) })
		res, err := Partition(g, Config{Algorithm: AlgoHDRF, K: 16, Workers: 1, Refine: RefineMoves, RefineWorkers: workers, Sink: sink})
		if err != nil {
			t.Fatal(err)
		}
		return res.ReplicationFactor(), seq
	}
	r1, want := run(1)
	if r1 > base.ReplicationFactor() {
		t.Errorf("refined RF %.4f worse than bare RF %.4f", r1, base.ReplicationFactor())
	}
	for _, workers := range []int{1, 2, 4} {
		r, got := run(workers)
		if r != r1 {
			t.Errorf("RefineWorkers %d: RF %.6f, %.6f at RefineWorkers 1", workers, r, r1)
		}
		if len(got) != len(want) {
			t.Fatalf("RefineWorkers %d: sink saw %d edges, %d at RefineWorkers 1", workers, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("RefineWorkers %d: assignment %d is %v, %v at RefineWorkers 1", workers, i, got[i], want[i])
			}
		}
	}
}

// TestRefineReportedEdgeCount runs refined HDRF over streams whose reported
// edge count is 0 ("count unknown"), negative, half or twice the real one.
// The wrapper sizes its capture from a positive count only, so each run
// must still capture every edge: no error, every edge assigned exactly
// once, and a replica table that matches the assignment.
func TestRefineReportedEdgeCount(t *testing.T) {
	g := Dataset("OK", 0.05)
	m := g.NumEdges()
	for _, reported := range []int64{0, -1, m / 2, 2 * m} {
		src := reportedCount{g: g, m: reported}
		col := &part.Collect{}
		res, err := Partition(src, Config{Algorithm: AlgoHDRF, K: 16, Workers: 1,
			Refine: RefineMoves, RefineWorkers: 1, Sink: col})
		if err != nil {
			t.Fatalf("%d edges reported: %v", reported, err)
		}
		if err := parttest.CheckExactlyOnce(src, res, col); err != nil {
			t.Errorf("%d edges reported: %v", reported, err)
		}
		if err := parttest.CheckReplicas(res, col); err != nil {
			t.Errorf("%d edges reported: %v", reported, err)
		}
	}
}
