package hep

// End-to-end coverage of Config.Obs: the same hub the CLI wires up via
// -trace-json / -metrics-addr / -v, driven here through the public API for
// every instrumented algorithm, plus the once-per-batch discipline of
// enabled observability, and the library's silence on the default HTTP mux.

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"hep/internal/obs"
	"hep/internal/shard"
)

// TestConfigObsEndToEnd runs every instrumented algorithm with an attached
// observability hub and checks the surface the CLI exposes: a non-empty span
// timeline with every span closed, populated hot-path counters, and a report
// that passes the hep-trace/v1 validator the CI end-to-end job uses.
func TestConfigObsEndToEnd(t *testing.T) {
	g := Dataset("LJ", 0.05)
	cases := []struct {
		algo    string
		workers int
	}{
		{AlgoHEP, 1},
		{AlgoNEPP, 1},
		{AlgoHDRF, 1},
		{AlgoHDRF, 2},
		{AlgoRestream, 1},
		{AlgoBuffered, 2},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/W=%d", tc.algo, tc.workers), func(t *testing.T) {
			o := NewObs(tc.workers)
			res, err := Partition(g, Config{
				Algorithm: tc.algo, K: 8, Tau: 10, Seed: 1,
				Workers: tc.workers, Obs: o,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.M != g.NumEdges() {
				t.Fatalf("assigned %d of %d edges", res.M, g.NumEdges())
			}

			rep := o.Report()
			if len(rep.Spans) == 0 {
				t.Fatal("no spans recorded")
			}
			for _, sp := range rep.Spans {
				if sp.EndNs < 0 {
					t.Errorf("span %q left open", sp.Name)
				}
			}
			var total int64
			for _, v := range rep.Counters {
				total += v
			}
			if total == 0 {
				t.Error("all hot-path counters zero")
			}
			if rep.Counters[obs.CtrEdgesStreamed.String()]+
				rep.Counters[obs.CtrExpansionEdges.String()] == 0 {
				t.Errorf("no edge traffic counted: %v", rep.Counters)
			}

			var buf bytes.Buffer
			if err := rep.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			if err := obs.ValidateReport(buf.Bytes()); err != nil {
				t.Errorf("report fails the trace validator: %v", err)
			}
		})
	}
}

// TestOneWorkerProgressSignal pins the live progress signal at Workers 1
// and 2: every placed edge is counted once per placement pass (HEP's h2h
// edges included; the sequential degree and CSR pre-passes count nothing),
// batches fold per placement or buffer batch, and the quality series
// samples per batch rather than once per pass.
func TestOneWorkerProgressSignal(t *testing.T) {
	g := Dataset("OK", 0.25)
	m := g.NumEdges()
	for _, tc := range []struct {
		algo   string
		passes int64
	}{
		{AlgoHDRF, 1},
		{AlgoRestream, 3},
		{AlgoHEP, 1},
		{AlgoBuffered, 1},
	} {
		t.Run(tc.algo, func(t *testing.T) {
			for _, w := range []int{1, 2} {
				o := NewObs(w)
				_, err := Partition(g, Config{Algorithm: tc.algo, K: 8, Tau: 2, Passes: int(tc.passes),
					Buffer: int(m / 8), Workers: w, Obs: o})
				if err != nil {
					t.Fatal(err)
				}
				rep := o.Report()
				if got, want := rep.Counters[obs.CtrEdgesStreamed.String()], tc.passes*m; got != want {
					t.Errorf("W=%d: edges_streamed = %d, want %d (%d passes × %d edges)", w, got, want, tc.passes, m)
				}
				if got := rep.Counters[obs.CtrBatches.String()]; got < 2*tc.passes {
					t.Errorf("W=%d: batches = %d, want ≥ 2 per pass over %d passes", w, got, tc.passes)
				}
				if n := len(o.Series()); n < 2 {
					t.Errorf("W=%d: quality series holds %d samples, want ≥ 2", w, n)
				}
			}
		})
	}
}

// TestObsFoldsPerBatch pins the discipline that keeps enabled observability
// off the per-edge path, on HDRF placement over the TW stand-in the
// benchmarks use. With a hub attached the batch loop counts one batch per
// DefaultBatchEdges edges of the graph's one lent slab, batch_latency_ns
// holds exactly one observation per counted batch, and the quality series
// holds at most one sample per batch. A run's allocation count does not
// grow with the graph. A counter fold, latency observation, quality sample
// or allocation per edge or per batch instead of per run breaks one of
// these. The timed price of enabled observability is the benchmark ledger's
// obs.overhead_pct.
func TestObsFoldsPerBatch(t *testing.T) {
	run := func(g *MemGraph, o *Obs) {
		if _, err := Partition(g, Config{Algorithm: AlgoHDRF, K: 32, Workers: 1, Obs: o}); err != nil {
			t.Fatal(err)
		}
	}
	g := Dataset("TW", benchScale)
	m := g.NumEdges()
	o := NewObs(1)
	run(g, o)
	c := o.Counters()
	batches := (m + shard.DefaultBatchEdges - 1) / shard.DefaultBatchEdges
	if batches < 8 {
		t.Fatalf("stand-in has %d edges, %d batches: too few to tell per batch from per run", m, batches)
	}
	if got := c.Total(obs.CtrEdgesStreamed); got != m {
		t.Errorf("edges_streamed = %d, want %d", got, m)
	}
	if got := c.Total(obs.CtrBatches); got != batches {
		t.Errorf("batches = %d, want %d (one per %d edges of %d)", got, batches, shard.DefaultBatchEdges, m)
	}
	if got := c.HistCount(obs.HistBatchNs); got != batches {
		t.Errorf("batch_latency_ns holds %d observations, want one per batch (%d)", got, batches)
	}
	if n := int64(len(o.Series())) + o.SeriesEvicted(); n < 1 || n > batches {
		t.Errorf("quality series took %d samples over %d batches, want 1 to %d", n, batches, batches)
	}

	// A one-slot series ring keeps sampling on without counting the
	// ring's own growth.
	allocs := func(g *MemGraph) float64 {
		return testing.AllocsPerRun(3, func() {
			run(g, NewObsWithOptions(ObsOptions{SeriesCap: 1}))
		})
	}
	small, large := allocs(Dataset("TW", benchScale/2)), allocs(g)
	if small != large {
		t.Errorf("a run with obs on allocates %.0f times at %d edges and %.0f at %d: allocation grows with the graph",
			small, Dataset("TW", benchScale/2).NumEdges(), large, m)
	}
}

// TestBufferedQualitySeries pins the quality time series on the out-of-core
// path: a Buffered run sized to several batches must emit at least one
// sample per buffered batch (the per-batch SampleQuality boundary), with
// running totals that grow monotonically and end at the full edge count.
func TestBufferedQualitySeries(t *testing.T) {
	g := Dataset("OK", 0.05)
	m := g.NumEdges()
	buffer := int(m / 7) // ≥ 7 batches, plus a final partial flush
	o := NewObs(1)
	res, err := Partition(g, Config{
		Algorithm: AlgoBuffered, K: 8, Buffer: buffer, Workers: 1, Obs: o,
	})
	if err != nil {
		t.Fatal(err)
	}

	batches := int((m + int64(buffer) - 1) / int64(buffer))
	series := o.Series()
	if len(series) < batches {
		t.Fatalf("series has %d samples, want ≥ 1 per batch (%d batches)", len(series), batches)
	}
	for i, s := range series {
		if i > 0 && s.Edges < series[i-1].Edges {
			t.Fatalf("series[%d]: running edge total %d shrank from %d", i, s.Edges, series[i-1].Edges)
		}
		if s.RF <= 0 || s.Balance < 1 {
			t.Fatalf("series[%d]: implausible quality sample %+v", i, s)
		}
	}
	last := series[len(series)-1]
	if last.Edges != res.M {
		t.Fatalf("final sample covers %d edges, result placed %d", last.Edges, res.M)
	}
	// The incremental covered counter the sample carries must agree with a
	// full scan of the final replica table.
	var total, covered int64
	for _, c := range res.Reps.ReplicaCounts() {
		total += int64(c)
		if c > 0 {
			covered++
		}
	}
	if last.Covered != covered || last.Replicas != total {
		t.Fatalf("final sample replicas=%d covered=%d, table scan says %d/%d",
			last.Replicas, last.Covered, total, covered)
	}
}

// TestLibraryRegistersNoDebugHandlers: linking the library must not mount
// the debug listener's handlers on http.DefaultServeMux. Only a command that
// imports internal/obs/obshttp gets /debug/pprof/ and /debug/vars; a program
// that embeds hep and serves the default mux must not expose its profiles.
func TestLibraryRegistersNoDebugHandlers(t *testing.T) {
	for _, path := range []string{"/debug/pprof/", "/debug/vars"} {
		rec := httptest.NewRecorder()
		http.DefaultServeMux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusNotFound {
			t.Errorf("GET %s on http.DefaultServeMux: %d, want %d", path, rec.Code, http.StatusNotFound)
		}
	}
}
