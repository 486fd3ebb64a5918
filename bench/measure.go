package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"

	"hep"
	"hep/internal/shard"
)

// childEnv carries a child's childSpec; its presence selects child mode.
const childEnv = "HEP_BENCH_CHILD"

// childTimeout bounds one child; a child past it is killed and its rep
// counts as failed.
const childTimeout = 120 * time.Second

// childSpec tells a re-executed benchmark binary which job to run.
type childSpec struct {
	Mode     string  `json:"mode"`
	Workload string  `json:"workload"`
	Path     string  `json:"path"`
	Scale    float64 `json:"scale"`
	// TracePath is where a traced job writes its hep-trace/v1 report.
	TracePath string `json:"trace_path,omitempty"`
}

// runChild is the child side: run the job described by spec, print its
// result as one JSON line on stdout, and return the exit code.
func runChild(spec string) int {
	var cs childSpec
	if err := json.Unmarshal([]byte(spec), &cs); err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 2
	}
	w, ok := workloadByName(cs.Workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench child: unknown workload %q\n", cs.Workload)
		return 2
	}
	var out any
	var err error
	if cs.Mode == modeStaged {
		out, err = runStaged(w, cs.Path, cs.Scale)
	} else {
		out, err = runJob(w, cs)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench child (%s %s): %v\n", cs.Mode, cs.Workload, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 1
	}
	return 0
}

// spawn re-executes this binary as a child running spec, decodes the JSON
// line it prints into out, and returns the child's user plus system CPU
// time (from wait4). Children write temporary files into tmp.
func spawn(spec childSpec, tmp string, out any) (time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self)
	cmd.Env = append(os.Environ(), childEnv+"="+string(raw), "TMPDIR="+tmp)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var cpu time.Duration
	if cmd.ProcessState != nil {
		cpu = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	}
	if runErr != nil {
		if ctx.Err() != nil {
			return cpu, fmt.Errorf("%s child timed out after %v", spec.Mode, childTimeout)
		}
		return cpu, fmt.Errorf("%s child: %w", spec.Mode, runErr)
	}
	if err := json.Unmarshal(stdout.Bytes(), out); err != nil {
		return cpu, fmt.Errorf("%s child output: %w", spec.Mode, err)
	}
	return cpu, nil
}

// input is one generated workload graph on disk.
type input struct {
	path        string
	edges       int64
	nonIsolated int
	fnv64       string
}

// writeInput generates the workload's graph for seed and writes it as a
// binary edge list into dir. Nothing here is timed.
func writeInput(w workload, scale float64, seed int64, dir string) (input, error) {
	g := w.graph(scale, seed)
	path := filepath.Join(dir, w.name+".bin")
	if err := hep.WriteBinaryFile(path, g.E); err != nil {
		return input{}, err
	}
	deg := make([]int32, g.N)
	for _, e := range g.E {
		deg[e.U]++
		deg[e.V]++
	}
	in := input{path: path, edges: int64(len(g.E))}
	for _, d := range deg {
		if d > 0 {
			in.nonIsolated++
		}
	}
	f, err := os.Open(path)
	if err != nil {
		return input{}, err
	}
	defer f.Close()
	h := fnv.New64a()
	if _, err := io.Copy(h, f); err != nil {
		return input{}, err
	}
	in.fnv64 = fmt.Sprintf("%016x", h.Sum64())
	return in, nil
}

// checkResult is the output check of every timed rep: every edge of the
// file placed once, all k partitions present, the balance bound held, and
// exactly the non-isolated vertices covered.
func checkResult(w workload, cfg hep.Config, in input, r jobResult) error {
	var sum, max int64
	for _, l := range r.Loads {
		sum += l
		if l > max {
			max = l
		}
	}
	switch {
	case r.M != in.edges || sum != in.edges:
		return fmt.Errorf("placed %d edges (loads sum to %d), file has %d", r.M, sum, in.edges)
	case len(r.Loads) != cfg.K:
		return fmt.Errorf("%d partitions, want %d", len(r.Loads), cfg.K)
	case r.Covered != in.nonIsolated:
		return fmt.Errorf("%d vertices covered, graph has %d non-isolated", r.Covered, in.nonIsolated)
	}
	for p, l := range r.Loads {
		if l == 0 {
			return fmt.Errorf("partition %d is empty", p)
		}
	}
	// Parallel placement scores against load bounds up to one batch per
	// other worker stale, so it may pass the bound by that much.
	var slack int64
	if cfg.Workers > 1 {
		slack = int64(cfg.Workers-1) * int64(shard.FixedBatch(in.edges, cfg.Workers))
	}
	if bound := int64(w.alpha*float64(in.edges)/float64(cfg.K)) + 1 + slack; max > bound {
		return fmt.Errorf("max load %d exceeds the α=%g bound %d", max, w.alpha, bound)
	}
	return nil
}

// sample is one timed rep's end-to-end numbers.
type sample struct {
	job jobResult
	cpu time.Duration
}

// summary is the median, min and max of one metric over n reps, and its
// tail: the higher of p99 and p90 (nearest rank) that has at least ten reps
// beyond it, with tailPct 0 when neither has.
type summary struct {
	median, min, max, tail float64
	n, tailPct             int
}

func summarize(vals []float64) summary {
	if len(vals) == 0 {
		return summary{}
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	mid := len(s) / 2
	med := s[mid]
	if len(s)%2 == 0 {
		med = (s[mid-1] + s[mid]) / 2
	}
	out := summary{median: med, min: s[0], max: s[len(s)-1], n: len(s)}
	for _, pct := range []int{99, 90} {
		if i := (len(s)*pct+99)/100 - 1; len(s)-1-i >= 10 {
			out.tail, out.tailPct = s[i], pct
			break
		}
	}
	return out
}

// metricDef names a metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the job-level metrics in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"wall_s", "s"}, {"setup_s", "s"}, {"cpu_s", "s"},
	{"peak_rss_mib", "MiB"}, {"rf", "ratio"}, {"balance", "ratio"},
}

// perRep says how one timed rep yields each end-to-end metric but setup_s,
// which is timed once per set-up.
var perRep = map[string]func(sample) float64{
	"wall_s":       func(s sample) float64 { return float64(s.job.WallNs) / 1e9 },
	"cpu_s":        func(s sample) float64 { return s.cpu.Seconds() },
	"peak_rss_mib": func(s sample) float64 { return float64(s.job.PeakRSSKiB) / 1024 },
	"rf":           func(s sample) float64 { return s.job.RF },
	"balance":      func(s sample) float64 { return s.job.Balance },
}
