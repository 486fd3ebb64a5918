package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"testing"

	"hep"
	"hep/internal/obs"
)

// smokeScale keeps every workload graph to a few tens of thousands of edges.
const smokeScale = 0.2

// TestMain lets the test binary serve as the benchmark's child process.
func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(runChild(spec))
	}
	os.Exit(m.Run())
}

// benchmarkFile is the part of BENCHMARK.json the names are checked against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSmoke runs every workload at a tiny scale with one timed rep, the
// staged chains at both worker counts and the traced facade rep, and checks
// that the emitted metric names and units are exactly the ones
// BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	b := readBenchmarkFile(t)
	var declaredWorkloads []string
	for _, w := range b.Workloads {
		declaredWorkloads = append(declaredWorkloads, w.Name)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	if !slices.Equal(names, declaredWorkloads) {
		t.Fatalf("workloads %v, BENCHMARK.json declares %v", names, declaredWorkloads)
	}
	wantE2E := map[string]string{}
	for _, m := range b.EndToEnd {
		wantE2E[m.Name] = m.Unit
	}
	wantLayer := map[string]string{}
	for _, m := range b.PerLayer {
		wantLayer[m.Name] = m.Unit
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for name := range wantE2E {
		if !valid.MatchString(name) {
			t.Errorf("end-to-end metric name %q", name)
		}
	}
	for name := range wantLayer {
		if !valid.MatchString(name) {
			t.Errorf("per-layer metric name %q", name)
		}
	}

	dir := t.TempDir()
	p := params{scale: smokeScale, minReps: 1, trace: true, traceDir: dir}
	report := obs.NewBenchReport(nil)
	emitted := map[string]bool{}
	for _, w := range workloads {
		o := runWorkload(w, 1, p, dir)
		if o.failed > 0 {
			t.Fatalf("%s: %d of %d children failed", w.name, o.failed, o.attempted)
		}
		checkUnits(t, w.name+" end-to-end", o.resultLine(false).Metrics, wantE2E)
		checkUnits(t, w.name+" per-layer", o.resultLine(true).Metrics, wantLayer)
		for name := range o.layer {
			if _, ok := wantLayer[name]; !ok {
				t.Errorf("%s: traced pass sets undeclared metric %q", w.name, name)
			}
			emitted[name] = true
		}
		if err := report.Add(w.name, o.ledger); err != nil {
			t.Fatal(err)
		}
		trace, err := os.ReadFile(filepath.Join(dir, "trace-"+w.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := obs.ValidateReport(trace); err != nil {
			t.Errorf("%s: traced rep: %v", w.name, err)
		}
	}
	for name := range wantLayer {
		if !emitted[name] {
			t.Errorf("no workload's traced pass measures %q", name)
		}
	}

	path := filepath.Join(dir, "ledger.json")
	if err := writeLedger(report, path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back obs.BenchReport
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != obs.BenchSchema || len(back.Tables) != len(workloads) {
		t.Fatalf("ledger: schema %q with %d tables", back.Schema, len(back.Tables))
	}
}

func checkUnits(t *testing.T, what string, got map[string]metricValue, want map[string]string) {
	t.Helper()
	var gotNames, wantNames []string
	for name, m := range got {
		gotNames = append(gotNames, name)
		if want[name] != m.Unit {
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, name, m.Unit, want[name])
		}
	}
	for name := range want {
		wantNames = append(wantNames, name)
	}
	sort.Strings(gotNames)
	sort.Strings(wantNames)
	if !slices.Equal(gotNames, wantNames) {
		t.Errorf("%s: emits %v, BENCHMARK.json declares %v", what, gotNames, wantNames)
	}
}

// TestChainsMatchFacade pins each staged chain to the job it decomposes: at
// Workers 1 every chain must produce the facade's partition loads and total
// replica count bit for bit.
func TestChainsMatchFacade(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			in, err := writeInput(w, smokeScale, 7, dir)
			if err != nil {
				t.Fatal(err)
			}
			cfg := w.config(smokeScale)
			cfg.Workers = 1
			if cfg.RefineWorkers > 0 {
				cfg.RefineWorkers = 1
			}
			facade := partitionWith(t, w, in.path, cfg, func(src hep.EdgeStream, cfg hep.Config) (*hep.Result, error) {
				return hep.PartitionStream(src, cfg)
			})
			staged := partitionWith(t, w, in.path, cfg, func(src hep.EdgeStream, cfg hep.Config) (*hep.Result, error) {
				return w.chain(src, cfg, w.alpha, 1, &recorder{chain: 1})
			})
			if !slices.Equal(facade.Counts, staged.Counts) {
				t.Errorf("loads differ:\nfacade %v\nstaged %v", facade.Counts, staged.Counts)
			}
			if f, s := facade.Reps.TotalReplicas(), staged.Reps.TotalReplicas(); f != s {
				t.Errorf("total replicas: facade %d, staged %d", f, s)
			}
		})
	}
}

// partitionWith opens path as the job does, resolves the budget, and runs
// partition.
func partitionWith(t *testing.T, w workload, path string, cfg hep.Config,
	partition func(hep.EdgeStream, hep.Config) (*hep.Result, error)) *hep.Result {
	t.Helper()
	src, closeSrc, err := w.open(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer closeSrc()
	if cfg, err = hep.FitBudget(src, cfg); err != nil {
		t.Fatal(err)
	}
	res, err := partition(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSummarizeTail pins the tail percentile to the nearest-rank p90 or p99
// with at least ten reps beyond it.
func TestSummarizeTail(t *testing.T) {
	vals := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // descending, so summarize must sort
		}
		return v
	}
	for _, c := range []struct {
		n, pct int
		tail   float64
	}{
		{99, 0, 0},
		{100, 90, 90},
		{999, 90, 900},
		{1000, 99, 990},
	} {
		s := summarize(vals(c.n))
		if s.tailPct != c.pct || s.tail != c.tail {
			t.Errorf("n=%d: tail p%d %g, want p%d %g", c.n, s.tailPct, s.tail, c.pct, c.tail)
		}
	}
}
