// Command hep-partition partitions a binary edge list with any of the
// implemented algorithms and reports replication factor, balance, vertex
// balance, run-time and memory. The input is streamed through the
// out-of-core engine's chunked reader, so graphs larger than RAM work with
// -algo buffered (optionally sized by -budget). Optionally writes
// "u v partition" lines.
//
// Usage:
//
//	hep-partition -in graph.bin -k 32 -algo hep -tau 10
//	hep-partition -in graph.bin -k 32 -algo hep -budget 2147483648
//	hep-partition -in graph.bin -k 32 -algo buffered -buffer 1048576
//	hep-partition -in graph.bin -k 32 -algo buffered -budget 536870912
//	hep-partition -in graph.bin -k 128 -algo hdrf -assign out.txt
//	hep-partition -in graph.bin -k 32 -algo hdrf -refine moves
//	hep-partition -in graph.bin -k 32 -algo hdrf -workers 8
//	hep-partition -in graph.bin -k 32 -algo hdrf -workers 8 -mmap
//	hep-partition -in graph.bin -k 32 -workers 4 -v -trace-json trace.json -metrics-addr :6060
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"hep"
	"hep/internal/obs"
	"hep/internal/part"
)

func main() {
	var (
		in      = flag.String("in", "", "binary edge-list input (required)")
		k       = flag.Int("k", 32, "number of partitions")
		algo    = flag.String("algo", hep.AlgoHEP, "algorithm: "+strings.Join(hep.Algorithms(), "|"))
		tau     = flag.Float64("tau", 10, "HEP degree threshold factor")
		alpha   = flag.Float64("alpha", 0, "balance bound α (0 = algorithm default)")
		lambda  = flag.Float64("lambda", 0, "HDRF λ (0 = default 1.1)")
		seed    = flag.Int64("seed", 42, "seed for randomized algorithms")
		assign  = flag.String("assign", "", "write 'u v partition' lines to this file")
		buffer  = flag.Int("buffer", 0, "buffered algorithm: edges per batch (0 = default or derived from -budget)")
		workers = flag.Int("workers", 0, "DNE's concurrent expanders; hdrf streams partial degrees at 1 "+
			"and takes the exact-degree pre-pass at any other value; hep, nepp, rehdrf and buffered "+
			"accept any value and run one sequential path (0 = all cores; algorithms with no "+
			"parallel path reject > 1)")
		budget = flag.Int64("budget", 0, "if > 0, fit the partitioner to this many bytes: "+
			"picks τ for -algo hep (§4.4), sizes the edge buffer for -algo buffered")
		refineMode = flag.String("refine", "", "run the local-search refinement post-pass on the "+
			"finalized partitioning: "+hep.RefineMoves+" (boundary-vertex move rounds) or "+
			hep.RefineSplitMerge+" (over-partition, merge back, then move rounds)")
		refineRounds  = flag.Int("refine-rounds", 0, "bound the refinement move rounds (0 = default 4)")
		refineWorkers = flag.Int("refine-workers", 0, "refinement parallelism, independent of -workers "+
			"(0 = all cores, 1 = deterministic sequential path)")
		mmap = flag.Bool("mmap", false, "memory-map the input instead of streaming it through the "+
			"chunked reader: zero-copy ingest on little-endian hosts (the chunked reader serves "+
			"where mmap is unavailable)")
		traceJSON = flag.String("trace-json", "", "write the machine-readable run trace "+
			"(phase timeline + hot-path counters, hep-trace/v1) to this file")
		metricsAddr = flag.String("metrics-addr", "", "serve expvar (/debug/vars, live hep counters), "+
			"pprof (/debug/pprof/), Prometheus text exposition (/metrics) and the live trace "+
			"(/debug/trace.json) on this address for the duration of the run")
		obsMaxSpans = flag.Int("obs-max-spans", 0, "cap the trace span list; excess spans are dropped "+
			"and counted in spans_dropped (0 = default 8192)")
		obsSeriesCap = flag.Int("obs-series-cap", 0, "cap the quality-series ring; oldest samples are "+
			"evicted FIFO (0 = default 1024, negative disables the series)")
		obsSampleEvery = flag.Int("obs-sample-every", 0, "record every Nth quality sample "+
			"(0 or 1 = every batch/region boundary, negative disables the series)")
		verbose = flag.Bool("v", false, "print phase transitions and a periodic edges/s + ETA line to stderr")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "hep-partition: -in is required")
		flag.Usage()
		os.Exit(2)
	}

	cfg := hep.Config{
		Algorithm: *algo, K: *k, Tau: *tau,
		Alpha: *alpha, Lambda: *lambda, Seed: *seed,
		Buffer: *buffer, MemBudget: *budget, Workers: *workers,
		Refine: *refineMode, RefineRounds: *refineRounds, RefineWorkers: *refineWorkers,
	}

	// One observability hub feeds all three surfaces: the trace file, the
	// debug listener and the progress reporter. With none requested, cfg.Obs
	// stays nil and every instrumentation point in the pipeline is free.
	if *traceJSON != "" || *metricsAddr != "" || *verbose {
		o := hep.NewObsWithOptions(hep.ObsOptions{
			MaxSpans:    *obsMaxSpans,
			SeriesCap:   *obsSeriesCap,
			SampleEvery: *obsSampleEvery,
		})
		o.SetMeta("input", *in)
		o.SetMeta("algorithm", *algo)
		o.SetMeta("k", *k)
		o.SetMeta("workers", *workers)
		cfg.Obs = o
		if *metricsAddr != "" {
			srv, addr, err := obs.ServeDebug(o, *metricsAddr)
			fail(err)
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "hep-partition: debug endpoints on http://%s/debug/\n", addr)
		}
		if *verbose {
			defer obs.StartProgress(o, os.Stderr, time.Second).Stop()
		}
	}

	discoverN := 0
	if *algo == hep.AlgoBuffered {
		discoverN = -1 // buffered runs its own discovery scan
	}
	var src hep.EdgeStream
	var err error
	if *mmap {
		ms, merr := hep.OpenMmap(*in, discoverN)
		fail(merr)
		defer ms.Close()
		if *verbose {
			fmt.Fprintf(os.Stderr, "hep-partition: mmap input (mapped=%v)\n", ms.Mapped())
		}
		src = ms
	} else {
		src, err = hep.OpenChunked(*in, discoverN, 0)
		fail(err)
	}

	// Resolve the budget up front so the chosen knob is visible (and
	// reproducible without -budget in later runs).
	if *budget > 0 {
		cfg, err = hep.FitBudget(src, cfg)
		fail(err)
		switch *algo {
		case hep.AlgoBuffered:
			fmt.Printf("budget %d bytes → buffer=%d edges\n", *budget, cfg.Buffer)
		default:
			fmt.Printf("budget %d bytes → τ=%g\n", *budget, cfg.Tau)
		}
	}

	var w *bufio.Writer
	if *assign != "" {
		f, err := os.Create(*assign)
		fail(err)
		defer f.Close()
		w = bufio.NewWriterSize(f, 1<<20)
		defer w.Flush()
		cfg.Sink = part.SinkFunc(func(u, v uint32, p int) {
			fmt.Fprintf(w, "%d %d %d\n", u, v, p)
		})
	}

	start := time.Now()
	res, err := hep.PartitionStream(src, cfg)
	fail(err)
	elapsed := time.Since(start)

	if *traceJSON != "" {
		cfg.Obs.SetMeta("runtime_ms", elapsed.Milliseconds())
		fail(cfg.Obs.WriteJSONFile(*traceJSON))
		fmt.Fprintf(os.Stderr, "hep-partition: trace written to %s\n", *traceJSON)
	}

	s := hep.Summarize(*algo, res)
	fmt.Printf("graph:               %s (%d vertices, %d edges)\n", *in, res.N, res.M)
	fmt.Printf("algorithm:           %s (k=%d)\n", s.Algorithm, s.K)
	fmt.Printf("replication factor:  %.4f\n", s.ReplicationFactor)
	fmt.Printf("balance α:           %.4f (max %d / min %d edges)\n", s.Balance, s.MaxLoad, s.MinLoad)
	fmt.Printf("vertex balance:      %.4f (std/avg replicas per partition)\n", s.VertexBalance)
	fmt.Printf("run-time:            %s\n", elapsed.Round(time.Millisecond))
}

func fail(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "hep-partition: %v\n", err)
		os.Exit(1)
	}
}
