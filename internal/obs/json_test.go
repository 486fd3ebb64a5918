package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenReport builds the deterministic trace the golden file pins: two
// phases (one nested batch span), eight counters, one gauge, run meta,
// pinned repro metadata, two quality samples and three histograms —
// every field class of the hep-trace/v1 schema exercised once.
func goldenReport() *Obs {
	o := fakeObs()
	o.SetMeta("algorithm", "hep")
	o.SetMeta("k", 32)
	o.SetTotalEdges(2000)

	o.Span("degree-pass").Edges(1000).End()
	sp := o.Span("stream")
	o.Span("batch-0").Edges(500).Bytes(4096).End()
	sp.Edges(1000).End()

	// The refinement post-pass span tree: refine > refine-merge (split-merge
	// pairing) and refine > refine-moves > refine-round.
	rsp := o.Span("refine")
	o.Span("refine-merge").Edges(2000).End()
	msp := o.Span("refine-moves")
	o.Span("refine-round").Edges(24).End()
	msp.End()
	rsp.End()

	c := o.Counters()
	c.Add(CtrEdgesStreamed, 1000)
	c.Add(CtrEdgesStreamed, 500)
	c.Add(CtrBatches, 2)
	c.Add(CtrCASRetries, 3)
	c.Add(CtrSpillBytes, 1<<16)
	c.Add(CtrRefineRounds, 1)
	c.Add(CtrMovesApplied, 12)
	c.Add(CtrMovesRejectedBalance, 2)
	c.Add(CtrGainRecomputes, 64)
	c.SetMax(GaugePeakBufferBytes, 2)

	c.Observe(HistBatchNs, 1_500_000)
	c.Observe(HistBatchNs, 900_000)
	c.Observe(HistRegionEdges, 48)
	c.Observe(HistStallNs, 200_000)

	o.RecordSample(500, 700, 450, 160, 140, 32)
	o.RecordSample(1000, 1250, 800, 320, 290, 32)
	return o
}

// TestTraceJSONGolden pins the trace-JSON wire format byte-for-byte: a
// schema change (renamed field, reordered struct, new default) shows up as a
// golden diff that must be reviewed, and the emitted bytes must satisfy the
// validator the CI end-to-end job uses.
func TestTraceJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenReport().Report().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateReport(buf.Bytes()); err != nil {
		t.Fatalf("golden trace fails its own validator: %v", err)
	}

	golden := filepath.Join("testdata", "trace_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace JSON drifted from golden (run with -update and review the schema change):\ngot:\n%s\nwant:\n%s",
			buf.Bytes(), want)
	}
}

// TestWriteJSONFile covers the -trace-json path end to end, including the
// nil no-op contract.
func TestWriteJSONFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := goldenReport().WriteJSONFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateReport(data); err != nil {
		t.Fatal(err)
	}

	var disabled *Obs
	if err := disabled.WriteJSONFile(filepath.Join(t.TempDir(), "none.json")); err != nil {
		t.Fatalf("nil Obs WriteJSONFile = %v, want nil no-op", err)
	}
}

// TestValidateReportRejects pins the validator against the failure classes
// the CI job must catch: wrong schema, unknown counter names, and a
// malformed span tree.
func TestValidateReportRejects(t *testing.T) {
	base := func() *Report { return goldenReport().Report() }
	cases := []struct {
		name    string
		mutate  func(*Report)
		wantErr string
	}{
		{"wrong-schema", func(r *Report) { r.Schema = "hep-trace/v0" }, "schema"},
		//hep:anyname deliberately unknown: exercises ValidateReport's counter-name rejection
		{"unknown-counter", func(r *Report) { r.Counters["made_up"] = 1 }, "unknown counter"},
		//hep:anyname deliberately unknown: exercises ValidateReport's gauge-name rejection
		{"unknown-gauge", func(r *Report) { r.Gauges["made_up"] = 1 }, "unknown gauge"},
		{"root-with-depth", func(r *Report) { r.Spans[0].Depth = 2 }, "root with depth"},
		{"bad-parent", func(r *Report) { r.Spans[1].Parent = 17 }, "parent"},
		{"depth-mismatch", func(r *Report) { r.Spans[2].Depth = 5 }, "depth"},
		{"ends-before-start", func(r *Report) { r.Spans[0].EndNs = r.Spans[0].StartNs - 1 }, "ends before"},
		{"empty-name", func(r *Report) { r.Spans[0].Name = "" }, "empty name"},
		{"non-monotonic-series", func(r *Report) {
			r.Series[0].TimeNs, r.Series[1].TimeNs = r.Series[1].TimeNs, r.Series[0].TimeNs
		}, "non-monotonic"},
		{"negative-sample-totals", func(r *Report) { r.Series[0].Covered = -1 }, "negative running totals"},
		{"negative-sample-metric", func(r *Report) { r.Series[1].RF = -0.5 }, "negative quality metrics"},
		{"negative-series-evicted", func(r *Report) { r.SeriesEvicted = -2 }, "series_evicted"},
		{"unknown-histogram", func(r *Report) {
			//hep:anyname deliberately unknown: exercises ValidateReport's histogram-name rejection
			r.Histograms["made_up"] = HistogramRecord{Counts: make([]int64, HistBuckets)}
		}, "unknown histogram"},
		{"wrong-bucket-count", func(r *Report) {
			r.Histograms["batch_latency_ns"] = HistogramRecord{Counts: make([]int64, 10)}
		}, "buckets"},
		// The refinement additions are held to the same schema rules: a
		// refine span with a dangling parent and a renamed refine counter
		// must both be rejected.
		{"refine-span-bad-parent", func(r *Report) {
			for i := range r.Spans {
				if r.Spans[i].Name == "refine-round" {
					r.Spans[i].Parent = 17
				}
			}
		}, "parent"},
		{"renamed-refine-counter", func(r *Report) {
			delete(r.Counters, "refine_rounds")
			//hep:anyname deliberately unknown: a renamed counter is schema drift
			r.Counters["refine_roundz"] = 1
		}, "unknown counter"},
		{"negative-bucket-count", func(r *Report) {
			h := r.Histograms["batch_latency_ns"]
			h.Counts[3] = -1
			r.Histograms["batch_latency_ns"] = h
		}, "negative count"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := base()
			tc.mutate(r)
			data, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			verr := ValidateReport(data)
			if verr == nil || !strings.Contains(verr.Error(), tc.wantErr) {
				t.Fatalf("ValidateReport = %v, want error containing %q", verr, tc.wantErr)
			}
		})
	}
	// Unknown fields inside a quality sample: the struct decode silently
	// drops them, so the strict per-sample pass must be the one to object.
	t.Run("unknown-sample-field", func(t *testing.T) {
		data, err := json.Marshal(base())
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		m["series"].([]any)[0].(map[string]any)["zz_not_in_schema"] = 1
		mutated, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		verr := ValidateReport(mutated)
		if verr == nil || !strings.Contains(verr.Error(), "unknown field") {
			t.Fatalf("ValidateReport = %v, want unknown-field rejection", verr)
		}
	})
	var buf bytes.Buffer
	if err := base().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateReport(buf.Bytes()); err != nil {
		t.Fatalf("unmutated report rejected: %v", err)
	}
}

// TestValidateTraceFile validates an externally produced trace file: the CI
// end-to-end job runs the real hep-partition binary with -trace-json on a
// generated graph, then points HEP_TRACE_FILE at the output and re-runs this
// test to hold the binary to the hep-trace/v1 schema.
func TestValidateTraceFile(t *testing.T) {
	path := os.Getenv("HEP_TRACE_FILE")
	if path == "" {
		t.Skip("set HEP_TRACE_FILE to a hep-partition -trace-json output to validate it")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateReport(data); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestBenchReport pins the hep-bench -json shape: tables keep their row
// structs' field order via RawMessage, and the nil report is a safe no-op.
func TestBenchReport(t *testing.T) {
	type row struct {
		Algo string  `json:"algo"`
		RF   float64 `json:"rf"`
	}
	r := NewBenchReport(map[string]any{"suite": "scale-1"})
	if err := r.Add("table2", []row{{"hep-10", 1.5}, {"hdrf", 2.1}}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back BenchReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != BenchSchema || len(back.Tables) != 1 || back.Tables[0].Name != "table2" {
		t.Fatalf("round-trip = %+v", back)
	}
	got := string(back.Tables[0].Rows)
	if !strings.Contains(got, "hep-10") || strings.Index(got, "algo") > strings.Index(got, "rf") {
		t.Fatalf("rows lost field order or content: %s", got)
	}

	var nilRep *BenchReport
	if err := nilRep.Add("t", []row{}); err != nil {
		t.Fatal(err)
	}
	if err := nilRep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
}
