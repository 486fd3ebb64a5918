package obshttp

import (
	"bytes"
	"net/http"
	"testing"

	"hep/internal/obs"
)

// TestServeDebug covers the -metrics-addr listener: expvar exposes the live
// hep counters, the pprof index answers, /debug/trace.json validates against
// the schema, and a second listener (a second run in one process) must not
// panic on duplicate expvar publication and must serve the newer hub's state.
func TestServeDebug(t *testing.T) {
	o := obs.New()
	o.Counters().Add(obs.CtrBatches, 7)
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
	if err := obs.ValidateReport(get("/debug/trace.json")); err != nil {
		t.Errorf("/debug/trace.json: %v", err)
	}
	if idx := get("/debug/pprof/"); !bytes.Contains(idx, []byte("goroutine")) {
		t.Error("/debug/pprof/ index missing profiles")
	}
	o.Counters().Observe(obs.HistBatchNs, 1_000_000)
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
	o2 := obs.New()
	o2.Counters().Add(obs.CtrBatches, 99)
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
