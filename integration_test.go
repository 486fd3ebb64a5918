package hep

// End-to-end integration tests across module boundaries: file IO →
// partitioning → per-partition outputs → processing simulation, exercising
// the full pipeline a downstream user runs.

import (
	"path/filepath"
	"testing"

	"hep/internal/edgeio"
	"hep/internal/procsim"
)

// TestPipelineFileToPartitionFiles covers: generate → write binary → open
// as stream → partition with HEP writing per-partition files → read the
// files back → verify the union is the input edge multiset.
func TestPipelineFileToPartitionFiles(t *testing.T) {
	g := Dataset("LJ", 0.05)
	dir := t.TempDir()
	in := filepath.Join(dir, "in.bin")
	if err := WriteBinaryFile(in, g.E); err != nil {
		t.Fatal(err)
	}
	src, err := OpenBinaryFile(in, 0)
	if err != nil {
		t.Fatal(err)
	}

	k := 8
	pw, err := edgeio.NewPartitionWriter(filepath.Join(dir, "out"), k)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Partition(src, Config{Algorithm: AlgoHEP, K: k, Tau: 10, Sink: pw})
	if err != nil {
		t.Fatal(err)
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}

	seen := map[Edge]int{}
	for _, e := range g.E {
		seen[e.Canonical()]++
	}
	var total int64
	for p := 0; p < k; p++ {
		edges, err := ReadBinaryFile(filepath.Join(dir, "out") + "." + itoa(p) + ".bin")
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(edges)) != res.Counts[p] {
			t.Fatalf("partition %d file holds %d edges, result says %d", p, len(edges), res.Counts[p])
		}
		total += int64(len(edges))
		for _, e := range edges {
			seen[e.Canonical()]--
		}
	}
	if total != g.NumEdges() {
		t.Fatalf("files hold %d edges, want %d", total, g.NumEdges())
	}
	for e, c := range seen {
		if c != 0 {
			t.Fatalf("edge %v count off by %d", e, c)
		}
	}
}

func itoa(i int) string {
	return string(rune('0' + i))
}

// TestPipelinePartitionToSimulation covers: partition with a collector →
// simulate all three workloads → verify reports are consistent with the
// partitioning quality ordering.
func TestPipelinePartitionToSimulation(t *testing.T) {
	g := Dataset("OK", 0.08)
	k := 16
	type out struct {
		rf  float64
		pr  float64
		msg int64
	}
	run := func(cfg Config) out {
		col := procsim.NewCollector(k)
		cfg.K = k
		cfg.Sink = col
		res, err := Partition(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cluster, err := procsim.NewCluster(res, col, procsim.DefaultCostModel())
		if err != nil {
			t.Fatal(err)
		}
		_, rep := cluster.PageRank(10, 0.85)
		return out{rf: res.ReplicationFactor(), pr: rep.SimSeconds, msg: rep.Messages}
	}
	hepOut := run(Config{Algorithm: AlgoHEP, Tau: 10})
	dbhOut := run(Config{Algorithm: AlgoDBH})
	if hepOut.rf >= dbhOut.rf {
		t.Fatalf("HEP RF %.2f not below DBH %.2f", hepOut.rf, dbhOut.rf)
	}
	if hepOut.msg >= dbhOut.msg {
		t.Errorf("HEP messages %d not below DBH %d despite lower RF", hepOut.msg, dbhOut.msg)
	}
	if hepOut.pr >= dbhOut.pr {
		t.Errorf("HEP PageRank %.2fs not below DBH %.2fs", hepOut.pr, dbhOut.pr)
	}
}

// TestRestreamThroughFacade exercises the multi-pass extension through the
// public API.
func TestRestreamThroughFacade(t *testing.T) {
	g := Dataset("LJ", 0.05)
	multi, err := Partition(g, Config{Algorithm: AlgoRestream, K: 8, Passes: 3})
	if err != nil {
		t.Fatal(err)
	}
	single, err := Partition(g, Config{Algorithm: AlgoRestream, K: 8, Passes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if multi.M != g.NumEdges() || single.M != g.NumEdges() {
		t.Fatal("incomplete assignment")
	}
	if multi.ReplicationFactor() > single.ReplicationFactor()*1.02 {
		t.Errorf("3-pass RF %.3f worse than 1-pass %.3f",
			multi.ReplicationFactor(), single.ReplicationFactor())
	}
}

// TestMemoryBudgetWorkflow is the §4.4 user journey end to end: estimate,
// choose τ, partition, and confirm the analytic model ordered τ correctly.
func TestMemoryBudgetWorkflow(t *testing.T) {
	g := Dataset("TW", 0.08)
	k := 32
	cands := []float64{100, 10, 1}
	var lastRF float64
	var budgets []int64
	for _, tau := range cands {
		b, err := EstimateMemory(g, k, tau)
		if err != nil {
			t.Fatal(err)
		}
		budgets = append(budgets, b)
	}
	// Budgets shrink with τ.
	for i := 1; i < len(budgets); i++ {
		if budgets[i] > budgets[i-1] {
			t.Fatalf("estimate not monotone: %v", budgets)
		}
	}
	for i, tau := range cands {
		chosen, ok, err := ChooseTau(g, k, cands, budgets[i]+1)
		if err != nil || !ok {
			t.Fatalf("tau=%v: ok=%v err=%v", tau, ok, err)
		}
		if chosen < tau {
			t.Fatalf("budget for tau=%v chose smaller tau=%v", tau, chosen)
		}
		res, err := Partition(g, Config{Algorithm: AlgoHEP, K: k, Tau: chosen})
		if err != nil {
			t.Fatal(err)
		}
		rf := res.ReplicationFactor()
		if lastRF != 0 && rf < lastRF*0.9 {
			t.Errorf("RF improved sharply as budget shrank: %v -> %v", lastRF, rf)
		}
		lastRF = rf
	}
}
