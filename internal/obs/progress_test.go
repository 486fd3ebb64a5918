package obs

import (
	"bytes"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestProgressReporter drives the -v reporter through a phase with a known
// edge total: it must print the phase transitions and at least one periodic
// line with percentage and throughput.
func TestProgressReporter(t *testing.T) {
	o := New()
	var buf bytes.Buffer
	p := StartProgress(o, &buf, 2*time.Millisecond)
	o.SetTotalEdges(2000)

	sp := o.Span("stream")
	o.Counters().Add(CtrEdgesStreamed, 1000)
	time.Sleep(30 * time.Millisecond) // several ticks
	sp.Edges(1000).End()
	p.Stop()

	out := buf.String()
	for _, want := range []string{"phase stream", "done", "edges/s", "(50%)"} {
		if !strings.Contains(out, want) {
			t.Errorf("progress output missing %q:\n%s", want, out)
		}
	}
}

// TestProgressMultiPassNoOverrun pins the multi-pass percentage fix:
// edges_streamed is cumulative across passes (a 3-pass restream folds 3·m),
// but the reporter scopes the percentage to the current root phase, so no
// line may ever read above 100% — the pre-fix reporter printed 200% on pass
// two and a negative ETA.
func TestProgressMultiPassNoOverrun(t *testing.T) {
	o := New()
	var buf bytes.Buffer
	p := StartProgress(o, &buf, time.Hour) // ticks driven manually via report
	defer p.Stop()
	const m = 1000
	o.SetTotalEdges(m)

	// Pass 1: the full m edges fold, then the pass ends.
	sp := o.Span("stream-pass-1")
	o.Counters().Add(CtrEdgesStreamed, m)
	p.report(time.Second)
	sp.Edges(m).End()

	// Pass 2: the root-span start rebases the phase; half of the pass folds.
	// Cumulative streamed is now 1.5·m — the pre-fix pct read 150%.
	sp = o.Span("restream-pass-2")
	o.Counters().Add(CtrEdgesStreamed, m/2)
	p.report(2 * time.Second)
	sp.Edges(m).End()

	out := buf.String()
	if !strings.Contains(out, "(100%)") {
		t.Errorf("pass 1 line missing 100%%:\n%s", out)
	}
	if !strings.Contains(out, "(50%)") {
		t.Errorf("pass 2 line not rebased to 50%%:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		for _, frag := range []string{"(101%", "(150%", "(200%", "ETA -"} {
			if strings.Contains(line, frag) {
				t.Errorf("progress line overran its pass: %q", line)
			}
		}
	}
}

// TestProgressNil pins the disabled contract: no Obs, no reporter, and Stop
// on the nil reporter is safe.
func TestProgressNil(t *testing.T) {
	p := StartProgress(nil, nil, time.Second)
	if p != nil {
		t.Fatalf("StartProgress(nil) = %v, want nil", p)
	}
	p.Stop()
}

// TestFmtHelpers pins the compact renderers the progress lines use.
func TestFmtHelpers(t *testing.T) {
	durs := map[int64]string{
		1_500_000_000: "1.50s",
		42_000_000:    "42ms",
		7_000:         "7µs",
	}
	for ns, want := range durs {
		if got := fmtDur(ns); got != want {
			t.Errorf("fmtDur(%d) = %q, want %q", ns, got, want)
		}
	}
	counts := map[int64]string{
		2_500_000_000: "2.50G",
		1_200_000:     "1.2M",
		34_500:        "34.5k",
		678:           "678",
	}
	for n, want := range counts {
		if got := fmtCount(n); got != want {
			t.Errorf("fmtCount(%d) = %q, want %q", n, got, want)
		}
	}
}

// TestServeDebug covers the -metrics-addr listener: expvar exposes the live
// hep counters, the pprof index answers, /debug/trace.json validates against
// the schema, and a second listener (a second run in one process) must not
// panic on duplicate expvar publication and must serve the newer hub's state.
func TestServeDebug(t *testing.T) {
	o := New()
	o.Counters().Add(CtrBatches, 7)
	srv, addr, err := ServeDebug(o, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + addr.String()

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s\n%s", path, resp.Status, buf.String())
		}
		return buf.Bytes()
	}

	if vars := get("/debug/vars"); !bytes.Contains(vars, []byte(`"batches":7`)) {
		t.Errorf("/debug/vars missing live hep counter:\n%s", vars)
	}
	if err := ValidateReport(get("/debug/trace.json")); err != nil {
		t.Errorf("/debug/trace.json: %v", err)
	}
	if idx := get("/debug/pprof/"); !bytes.Contains(idx, []byte("goroutine")) {
		t.Error("/debug/pprof/ index missing profiles")
	}
	o.Counters().Observe(HistBatchNs, 1_000_000)
	o.RecordSample(100, 150, 90, 20, 10, 8)
	prom := get("/metrics")
	for _, want := range []string{
		"hep_batches_total 7",
		"hep_spans_dropped 0",
		"hep_quality_rf ",
		`hep_batch_latency_ns_bucket{le="+Inf"} 1`,
		"hep_batch_latency_ns_sum 1000000",
		"hep_run_info{",
	} {
		if !bytes.Contains(prom, []byte(want)) {
			t.Errorf("/metrics missing %q:\n%s", want, prom)
		}
	}

	// Second run in the same process: swap the hub, don't re-publish.
	o2 := New()
	o2.Counters().Add(CtrBatches, 99)
	srv2, addr2, err := ServeDebug(o2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	resp, err := http.Get("http://" + addr2.String() + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(buf.Bytes(), []byte(`"batches":99`)) {
		t.Errorf("second listener still serving the old hub:\n%s", buf.String())
	}
}
