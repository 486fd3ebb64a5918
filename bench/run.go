package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// params sets how one workload is measured.
type params struct {
	scale   float64
	seconds time.Duration // keep starting timed reps until this has passed
	minReps int           // but run at least this many
	trace   bool
	// traceDir receives the traced reps' hep-trace/v1 reports.
	traceDir string
}

// stagedRuns is how many staged children a traced pass runs. One call is a
// single sample of a noisy host, so each row reports the median over them.
const stagedRuns = 3

// setupRuns is how many times a run sets its workload up; setup_s is the
// median.
const setupRuns = 3

// outcome is everything measured on one workload.
type outcome struct {
	workload          string
	in                input
	reps              []sample
	setups            []float64 // seconds, one per set-up
	attempted, failed int
	tau               float64
	buffer            int
	layer             map[string]float64
	ledger            []any
}

func (o *outcome) fail(what string, err error) {
	o.failed++
	fmt.Fprintf(os.Stderr, "bench: %s: %s: %v\n", o.workload, what, err)
}

// runWorkload sets the workload up setupRuns times, runs one untimed
// validation rep, then timed reps for p.seconds, and with p.trace the staged
// pass and one rep with Config.Obs set, interleaved with untraced reps. Reps
// run one at a time (a closed loop of one client).
func runWorkload(w workload, seed int64, p params, dir string) *outcome {
	o := &outcome{workload: w.name}
	cfg := w.config(p.scale)
	spec := func(mode string) childSpec {
		return childSpec{Mode: mode, Workload: w.name, Path: o.in.path, Scale: p.scale}
	}
	job := func(cs childSpec) (sample, bool) {
		var r jobResult
		o.attempted++
		cpu, err := spawn(cs, dir, &r)
		if err == nil {
			err = checkResult(w, cfg, o.in, r)
		}
		if err != nil {
			o.fail(cs.Mode, err)
			return sample{}, false
		}
		return sample{job: r, cpu: cpu}, true
	}

	// Set-up is everything before the timed reps: writing the input file
	// for seed and one discarded job on it, which warms the page cache and
	// pays any first-run cost. Timing it shows work moved out of the reps.
	for i := 0; i < setupRuns; i++ {
		start := time.Now()
		in, err := writeInput(w, p.scale, seed, dir)
		if err == nil && i > 0 && in.fnv64 != o.in.fnv64 {
			err = fmt.Errorf("seed %d gave two different inputs (fnv64 %s, %s)", seed, o.in.fnv64, in.fnv64)
		}
		if err != nil {
			o.attempted++
			o.fail("generate", err)
			return o
		}
		o.in = in
		job(spec(modeJob))
		o.setups = append(o.setups, time.Since(start).Seconds())
	}
	job(spec(modeValidate))
	start := time.Now()
	for n := 0; n < p.minReps || time.Since(start) < p.seconds; n++ {
		if s, ok := job(spec(modeJob)); ok {
			o.reps = append(o.reps, s)
			o.tau, o.buffer = s.job.Tau, s.job.Buffer
		}
	}
	if !p.trace {
		return o
	}

	// The staged and traced children are compared with untraced reps run
	// between them, not with the timed reps: the host's speed drifts by more
	// than the differences measured here within a few minutes.
	var runs [][]*ledgerRow
	var near []sample
	nearRep := func() {
		if s, ok := job(spec(modeJob)); ok {
			near = append(near, s)
		}
	}
	for i := 0; i < stagedRuns; i++ {
		nearRep()
		var rows []*ledgerRow
		o.attempted++
		if _, err := spawn(spec(modeStaged), dir, &rows); err != nil {
			o.fail(modeStaged, err)
			continue
		}
		runs = append(runs, rows)
	}
	rows := medianRows(runs)
	tracedSpec := spec(modeTraced)
	tracedSpec.TracePath = filepath.Join(p.traceDir, "trace-"+w.name+".json")
	traced, _ := job(tracedSpec)
	nearRep()
	o.layer = layerValues(rows, traced.job, near)
	for _, r := range rows {
		o.ledger = append(o.ledger, r)
	}
	o.ledger = append(o.ledger, o.jobRow(traced.job))
	return o
}

// jobRow is the ledger's summary row of the job: the end-to-end medians
// plus the input's repro facts. RF and Balance keep the column names
// hep-trace gate checks by default. JobSetupS is the part of wall_s before
// partitioning starts: open, vertex discovery and FitBudget.
type jobRow struct {
	Stage       string  `json:"stage"`
	Reps        int     `json:"reps"`
	Edges       int64   `json:"edges"`
	FNV64       string  `json:"fnv64"`
	Tau         float64 `json:"tau"`
	BufferEdges int     `json:"buffer_edges"`
	WallS       float64 `json:"wall_s"`
	SetupS      float64 `json:"setup_s"`
	JobSetupS   float64 `json:"job_setup_s"`
	CPUS        float64 `json:"cpu_s"`
	PeakRSSMiB  float64 `json:"peak_rss_mib"`
	RF          float64 `json:"RF"`
	Balance     float64 `json:"Balance"`
	TracedWallS float64 `json:"traced_wall_s"`
}

func (o *outcome) jobRow(traced jobResult) jobRow {
	med := o.medians()
	jobSetup := make([]float64, len(o.reps))
	for i, s := range o.reps {
		jobSetup[i] = float64(s.job.SetupNs) / 1e9
	}
	return jobRow{
		Stage: "job", Reps: len(o.reps), Edges: o.in.edges, FNV64: o.in.fnv64,
		Tau: o.tau, BufferEdges: o.buffer,
		WallS: med["wall_s"].median, SetupS: med["setup_s"].median,
		JobSetupS: summarize(jobSetup).median, CPUS: med["cpu_s"].median,
		PeakRSSMiB: med["peak_rss_mib"].median, RF: med["rf"].median, Balance: med["balance"].median,
		TracedWallS: float64(traced.WallNs) / 1e9,
	}
}

// medians summarizes every end-to-end metric: setup_s over the set-ups,
// the others over the timed reps.
func (o *outcome) medians() map[string]summary {
	out := map[string]summary{"setup_s": summarize(o.setups)}
	for name, value := range perRep {
		vals := make([]float64, len(o.reps))
		for i, s := range o.reps {
			vals[i] = value(s)
		}
		out[name] = summarize(vals)
	}
	return out
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object printed for a workload.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLine reports the end-to-end medians, or with trace the per-layer
// metrics.
func (o *outcome) resultLine(trace bool) resultLine {
	l := resultLine{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	if trace {
		for _, m := range perLayer {
			l.Metrics[m.name] = metricValue{o.layer[m.name], m.unit}
		}
		return l
	}
	med := o.medians()
	for _, m := range endToEnd {
		l.Metrics[m.name] = metricValue{med[m.name].median, m.unit}
	}
	return l
}

// print writes the human-readable table.
func (o *outcome) print(w io.Writer) {
	fmt.Fprintf(w, "== %s  |E|=%d  fnv64=%s  tau=%g  buffer=%d  attempted=%d failed=%d\n",
		o.workload, o.in.edges, o.in.fnv64, o.tau, o.buffer, o.attempted, o.failed)
	fmt.Fprintf(w, "%-16s %-6s %12s %12s %12s %16s %4s\n", "metric", "unit", "median", "min", "max", "tail", "n")
	med := o.medians()
	for _, m := range endToEnd {
		s := med[m.name]
		tail := "-"
		if s.tailPct > 0 {
			tail = fmt.Sprintf("p%d %.4f", s.tailPct, s.tail)
		}
		fmt.Fprintf(w, "%-16s %-6s %12.4f %12.4f %12.4f %16s %4d\n", m.name, m.unit, s.median, s.min, s.max, tail, s.n)
	}
	if o.layer == nil {
		return
	}
	for _, m := range perLayer {
		if v := o.layer[m.name]; v != 0 {
			fmt.Fprintf(w, "  %-38s %-8s %14.4f\n", m.name, m.unit, v)
		}
	}
}
