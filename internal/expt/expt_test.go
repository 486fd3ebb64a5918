package expt

import (
	"bytes"
	"strings"
	"testing"
)

// tinyConfig keeps harness tests fast: small scale, few datasets, small k.
func tinyConfig(out *bytes.Buffer) Config {
	return Config{
		Scale:    0.08,
		Datasets: []string{"OK"},
		Ks:       []int{4, 8},
		Out:      out,
	}
}

func TestFigure2Runs(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Figure2(Config{Scale: 0.08, Datasets: []string{"LJ"}, Out: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	// Figure 2's qualitative claims: vertex mass concentrates in the low
	// decades with a tiny high-degree tail, and the replication factor
	// grows with the degree bucket for both algorithms.
	if len(rows) >= 2 {
		if lowMass := rows[0].FractionVertices + rows[1].FractionVertices; lowMass < 0.8 {
			t.Errorf("two lowest buckets hold %.2f of vertices, want ≥ 0.8", lowMass)
		}
	}
	if tail := rows[len(rows)-1].FractionVertices; tail > 0.05 {
		t.Errorf("highest bucket holds %.2f of vertices, want a thin tail", tail)
	}
	last := rows[len(rows)-1]
	if last.HDRF <= rows[0].HDRF {
		t.Errorf("HDRF replication not increasing with degree: %v .. %v", rows[0].HDRF, last.HDRF)
	}
	if last.NE <= rows[0].NE {
		t.Errorf("NE replication not increasing with degree: %v .. %v", rows[0].NE, last.NE)
	}
	if !strings.Contains(buf.String(), "Figure 2") {
		t.Error("table title missing")
	}
}

func TestFigure5Runs(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Figure5(Config{Scale: 0.08, Datasets: []string{"OK", "IT"}, Out: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// The paper's Figure 5 shape: S\C vertices have above-average
		// degree, far higher than core vertices.
		if r.NormSec <= r.NormCore {
			t.Errorf("%s: S\\C normalized degree %.2f not above core %.2f", r.Dataset, r.NormSec, r.NormCore)
		}
	}
}

func TestFigure7Runs(t *testing.T) {
	rows, err := Figure7(Config{Scale: 0.08, Datasets: []string{"OK", "IT"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Lazy removal's point: only a minority of the column array is
		// ever touched by clean-up.
		if r.Fraction <= 0 || r.Fraction >= 1 {
			t.Errorf("%s: cleanup fraction %.3f outside (0,1)", r.Dataset, r.Fraction)
		}
	}
}

func TestFigure8Runs(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Figure8(tinyConfig(&buf))
	if err != nil {
		t.Fatal(err)
	}
	// 1 dataset × 2 ks × 10 algorithms.
	if len(rows) != 20 {
		t.Fatalf("rows = %d", len(rows))
	}
	byAlgo := map[string]Fig8Row{}
	for _, r := range rows {
		if r.K == 8 {
			byAlgo[r.Algorithm] = r
		}
	}
	// Headline orderings at k=8 on a social graph: HEP-100 beats HDRF and
	// DBH on RF; HEP memory shrinks with τ.
	if byAlgo["HEP-100"].RF >= byAlgo["HDRF"].RF {
		t.Errorf("HEP-100 RF %.2f not below HDRF %.2f", byAlgo["HEP-100"].RF, byAlgo["HDRF"].RF)
	}
	if byAlgo["HEP-100"].RF >= byAlgo["DBH"].RF {
		t.Errorf("HEP-100 RF %.2f not below DBH %.2f", byAlgo["HEP-100"].RF, byAlgo["DBH"].RF)
	}
	if !strings.Contains(buf.String(), "HEP-1") {
		t.Error("missing HEP rows in output")
	}
}

func TestFigure8SkipSlow(t *testing.T) {
	cfg := Config{Scale: 3.0, Datasets: []string{"OK"}, Ks: []int{4}, SkipSlow: true}
	// Build once to know whether the threshold triggers at this scale.
	g := cfg.build("OK")
	if g.NumEdges() <= 2_000_000 {
		t.Skip("scaled graph below the skip threshold")
	}
	rows, err := Figure8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	skipped := 0
	for _, r := range rows {
		if r.Skipped {
			skipped++
		}
	}
	if skipped == 0 {
		t.Error("SkipSlow did not skip any partitioner on a big graph")
	}
}

func TestFigure9Runs(t *testing.T) {
	rows, err := Figure9(Config{Scale: 0.08, Datasets: []string{"OK"}, Ks: []int{8}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // three τ values × one k
		t.Fatalf("rows = %d", len(rows))
	}
	var frac100, frac1 float64
	for _, r := range rows {
		if r.Tau == 100 {
			frac100 = r.H2HFraction
		}
		if r.Tau == 1 {
			frac1 = r.H2HFraction
			// §5.4 observation (3): informed streaming beats random when
			// the streaming phase dominates.
			if r.RFRatio <= 1 {
				t.Errorf("tau=1: simple hybrid RF ratio %.2f not above 1", r.RFRatio)
			}
		}
	}
	if frac1 <= frac100 {
		t.Errorf("H2H fraction not increasing as tau decreases: %.3f vs %.3f", frac100, frac1)
	}
}

func TestTableBufferedRuns(t *testing.T) {
	var buf bytes.Buffer
	rows, err := TableBuffered(Config{Scale: 0.2, Datasets: []string{"OK"}, Out: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byAlgo := map[string]TableBufferedRow{}
	for _, r := range rows {
		byAlgo[r.Algorithm] = r
	}
	// The out-of-core comparison's shape: HEP ≤ Buffered < HDRF on RF.
	if byAlgo["Buffered"].RF >= byAlgo["HDRF"].RF {
		t.Errorf("Buffered RF %.3f not below HDRF %.3f", byAlgo["Buffered"].RF, byAlgo["HDRF"].RF)
	}
	if byAlgo["HEP-10"].RF > byAlgo["Buffered"].RF {
		t.Errorf("HEP-10 RF %.3f above Buffered %.3f", byAlgo["HEP-10"].RF, byAlgo["Buffered"].RF)
	}
	if byAlgo["Buffered"].PeakBufMiB <= 0 {
		t.Error("buffered row missing peak buffer bytes")
	}
	if !strings.Contains(buf.String(), "Out-of-core") {
		t.Error("table title missing")
	}
}

func TestTable2Runs(t *testing.T) {
	rows, err := Table2(Config{Scale: 0.08, Datasets: []string{"OK", "IT"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Seconds < 0 || r.Points != 7 {
			t.Errorf("bad row %+v", r)
		}
	}
}

func TestTable3Runs(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Table3(Config{Scale: 0.05, Out: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want all 10 datasets", len(rows))
	}
	for _, r := range rows {
		if r.Edges == 0 || r.Vertices == 0 {
			t.Errorf("empty dataset row %+v", r)
		}
	}
}

func TestTable4Runs(t *testing.T) {
	rows, err := Table4(Config{Scale: 0.05, Datasets: []string{"OK"}})
	if err != nil {
		t.Fatal(err)
	}
	byAlgo := map[string]Table4Row{}
	for _, r := range rows {
		byAlgo[r.Algorithm] = r
		if r.PageRankSec <= 0 || r.BFSSec <= 0 || r.CCSec <= 0 {
			t.Errorf("%s: non-positive simulated times %+v", r.Algorithm, r)
		}
	}
	// §5.3 shape: HEP-100's PageRank beats DBH's (worst RF ⇒ most comm).
	if byAlgo["HEP-100"].PageRankSec >= byAlgo["DBH"].PageRankSec {
		t.Errorf("HEP-100 PageRank %.2fs not below DBH %.2fs",
			byAlgo["HEP-100"].PageRankSec, byAlgo["DBH"].PageRankSec)
	}
}

func TestTable5Runs(t *testing.T) {
	rows, err := Table5(Config{Scale: 0.08, Datasets: []string{"OK"}})
	if err != nil {
		t.Fatal(err)
	}
	vb := map[string]float64{}
	for _, r := range rows {
		vb[r.Algorithm] = r.VertexBalance
	}
	// Table 5 shape: lower τ (more streaming) improves vertex balance.
	if vb["HEP-1"] >= vb["HEP-100"] {
		t.Errorf("vertex balance did not improve with lower tau: HEP-1 %.3f vs HEP-100 %.3f",
			vb["HEP-1"], vb["HEP-100"])
	}
}

func TestTable6Runs(t *testing.T) {
	rows, err := Table6(Config{Scale: 0.08})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].MemBytes >= rows[i-1].MemBytes {
			t.Fatal("budgets not decreasing")
		}
		if rows[i].HardFaults < rows[i-1].HardFaults {
			t.Errorf("faults decreased when memory shrank: %d -> %d", rows[i-1].HardFaults, rows[i].HardFaults)
		}
	}
	first, last := rows[0], rows[len(rows)-1]
	if last.RunSeconds <= first.RunSeconds {
		t.Error("modeled run-time did not grow under memory pressure")
	}
}
