// Package expt is the experiment harness: one runner per table and figure
// of the paper's evaluation (§5), producing the same rows/series as text
// tables. cmd/hep-bench (-exp) and bench_test.go drive them.
package expt

import (
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"hep/internal/gen"
	"hep/internal/graph"
	"hep/internal/metrics"
	"hep/internal/obs"
	"hep/internal/part"
)

// Config selects datasets, partition counts and scale for a harness run.
type Config struct {
	// Scale multiplies dataset sizes (1.0 = CI-friendly defaults; the
	// paper's graphs are orders of magnitude larger).
	Scale float64
	// Datasets restricts runs to these registry names (nil = experiment
	// defaults).
	Datasets []string
	// Ks overrides the partition counts (nil = experiment defaults,
	// usually the paper's {4, 32, 128, 256}).
	Ks []int
	// SkipSlow skips the partitioners the paper marks OOT on large inputs
	// (METIS, ADWISE, SNE beyond a size threshold).
	SkipSlow bool
	// Out receives the rendered tables (default io.Discard).
	Out io.Writer
	// Report, if set, additionally collects every runner's rows as a named
	// JSON table — the machine-readable twin of the text output, written by
	// hep-bench -json. Nil skips collection (Add is a nil-safe no-op).
	Report *obs.BenchReport
}

// report collects rows under name in the JSON report, if one is attached.
func (c Config) report(name string, rows any) error {
	return c.Report.Add(name, rows)
}

func (c Config) out() io.Writer {
	if c.Out == nil {
		return io.Discard
	}
	return c.Out
}

func (c Config) scale() float64 {
	if c.Scale <= 0 {
		return 1.0
	}
	return c.Scale
}

func (c Config) datasets(def ...string) []string {
	if len(c.Datasets) > 0 {
		return c.Datasets
	}
	return def
}

func (c Config) ks(def ...int) []int {
	if len(c.Ks) > 0 {
		return c.Ks
	}
	return def
}

// build materializes a dataset at the configured scale.
func (c Config) build(name string) *graph.MemGraph {
	return gen.MustDataset(name).Build(c.scale())
}

// RunStats couples quality metrics with the measured run-time and memory
// footprint of one partitioning run.
type RunStats struct {
	metrics.Summary
	Seconds   float64
	HeapBytes int64 // peak live heap observed during the run
}

// heapSampler polls the live heap high-water mark while a run executes —
// the in-process analog of the paper's "maximum resident set size" metric.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	base int64
	peak atomic.Int64
}

func startHeapSampler() *heapSampler {
	s := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.base = int64(ms.HeapAlloc)
	s.peak.Store(0)
	go func() {
		defer close(s.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if d := int64(ms.HeapAlloc) - s.base; d > s.peak.Load() {
					s.peak.Store(d)
				}
			}
		}
	}()
	return s
}

// finish takes a final sample before stopping, so runs shorter than one
// sampling tick still report the result's live footprint.
func (s *heapSampler) finish() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if d := int64(ms.HeapAlloc) - s.base; d > s.peak.Load() {
		s.peak.Store(d)
	}
	close(s.stop)
	<-s.done
	return s.peak.Load()
}

// Measure runs one partitioner under timing and heap sampling.
func Measure(algo part.Algorithm, src graph.EdgeStream, k int) (RunStats, *part.Result, error) {
	sampler := startHeapSampler()
	start := time.Now()
	res, err := algo.Partition(src, k)
	elapsed := time.Since(start).Seconds()
	peak := sampler.finish()
	if err != nil {
		return RunStats{}, nil, err
	}
	return RunStats{
		Summary:   metrics.Summarize(algo.Name(), res),
		Seconds:   elapsed,
		HeapBytes: peak,
	}, res, nil
}

// table renders aligned rows.
type table struct {
	w *tabwriter.Writer
}

func newTable(out io.Writer, title string) *table {
	fmt.Fprintf(out, "\n== %s ==\n", title)
	return &table{w: tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)}
}

func (t *table) row(cells ...interface{}) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(t.w, "\t")
		}
		fmt.Fprint(t.w, format(c))
	}
	fmt.Fprintln(t.w)
}

func (t *table) flush() { t.w.Flush() }

func format(c interface{}) string {
	switch v := c.(type) {
	case float64:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprint(v)
	}
}

// mib renders bytes as MiB with two decimals.
func mib(b int64) string {
	return fmt.Sprintf("%.2f", float64(b)/(1<<20))
}
