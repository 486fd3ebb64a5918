// Command bench is the repository benchmark. It measures what one
// partitioning job costs a hep-partition user — wall time, set-up time, CPU,
// peak memory, replication factor and balance — on four generated on-disk
// workloads, and with --trace 1 splits each job into the layers it runs
// through. See README.md for the workloads, the metrics and their bounds.
//
// From the repository root:
//
//	bash bench/run.sh --workload hep-budget-tw --seed 1 --seconds 30 --trace 0
//
// or, from this directory, go run . --seed 1 (all workloads).
//
// Each rep runs in a fresh child process (this binary re-executed), so its
// peak RSS and CPU are the job's alone. Standard output gets one JSON result
// line per workload; a table with median, min, max, tail and n goes to
// standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"hep/internal/obs"
)

func main() {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(runChild(spec))
	}
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed of the generated input graphs")
		seconds = flag.Int("seconds", 30, "how long to keep running timed reps, per workload")
		trace   = flag.Int("trace", 0, "1 = also run the traced pass and print the per-layer metrics")
		ledger  = flag.String("ledger", filepath.Join(".bench_build", "ledger.json"),
			"where --trace 1 writes the per-layer ledger (hep-bench/v1)")
	)
	flag.Parse()
	var run []workload
	if *name == "all" {
		run = workloads
	} else if w, ok := workloadByName(*name); ok {
		run = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	p := params{
		scale:    benchScale,
		seconds:  time.Duration(*seconds) * time.Second,
		minReps:  5,
		trace:    *trace == 1,
		traceDir: filepath.Dir(*ledger),
	}
	// Inputs and the children's temporary files stay inside the working
	// directory, under an absolute path the children can use.
	base, err := filepath.Abs(".bench_build")
	fail(err)
	fail(os.MkdirAll(base, 0o755))
	dir, err := os.MkdirTemp(base, "run-")
	fail(err)
	code := runAll(run, *seed, p, dir, *ledger)
	os.RemoveAll(dir)
	os.Exit(code)
}

// runAll runs each workload in turn and prints its result line; it returns
// the process exit code.
func runAll(run []workload, seed int64, p params, dir, ledger string) int {
	report := obs.NewBenchReport(map[string]any{"seed": seed, "scale": p.scale})
	report.Repro["nproc"] = strconv.Itoa(runtime.NumCPU())
	code := 0
	for _, w := range run {
		o := runWorkload(w, seed, p, dir)
		o.print(os.Stderr)
		line, err := json.Marshal(o.resultLine(p.trace))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(string(line))
		if o.failed > 0 {
			code = 1
		}
		if p.trace {
			if err := report.Add(w.name, o.ledger); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
		}
	}
	if p.trace {
		if err := writeLedger(report, ledger); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "bench: ledger written to %s\n", ledger)
	}
	return code
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func writeLedger(r *obs.BenchReport, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
