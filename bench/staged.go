package main

import (
	"runtime"
	"time"

	"hep"
	"hep/internal/core"
	"hep/internal/graph"
	"hep/internal/memmodel"
	"hep/internal/ooc"
	"hep/internal/part"
	"hep/internal/refine"
	"hep/internal/shard"
	"hep/internal/stream"
)

// This file is the traced pass: each job re-run as a chain of calls into the
// layers' public functions, every call timed from here. The chains mirror
// what hep.PartitionStream does for the workload's Config stage by stage;
// TestChainsMatchFacade pins them bit-identical to the facade at Workers 1.

// ledgerRow is one timed call into a layer.
type ledgerRow struct {
	// Stage names the layer call, e.g. "core.build".
	Stage string `json:"stage"`
	// Chain is the worker count of the staged chain the call belongs to, 0
	// for calls outside the chains (ingest, budget fit, summary).
	Chain int `json:"chain"`
	// Workers is the parallelism the call itself ran with.
	Workers int `json:"workers"`
	// Edges is the number of edges the call processed.
	Edges int64 `json:"edges"`
	// Ns, AllocBytes and Allocs are the call's wall time and its
	// runtime.MemStats TotalAlloc and Mallocs deltas.
	Ns         int64 `json:"ns"`
	AllocBytes int64 `json:"alloc_bytes"`
	Allocs     int64 `json:"allocs"`
	// HeapAfterBytes is the live heap right after the call.
	HeapAfterBytes int64 `json:"heap_after_bytes"`
	// NsPerEdge and AllocBytesPerEdge are Ns and AllocBytes over Edges.
	NsPerEdge         float64 `json:"ns_per_edge"`
	AllocBytesPerEdge float64 `json:"alloc_bytes_per_edge"`
	// Stats holds what the layer reports about the call.
	Stats map[string]float64 `json:"stats,omitempty"`
}

// recorder collects the rows of one staged pass.
type recorder struct {
	chain int
	rows  []*ledgerRow
}

// stage times fn as one call into a layer and records it in the current
// chain.
func (r *recorder) stage(name string, workers int, edges int64, fn func() error) (*ledgerRow, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := fn()
	ns := time.Since(start).Nanoseconds()
	runtime.ReadMemStats(&after)
	row := &ledgerRow{
		Stage:          name,
		Chain:          r.chain,
		Workers:        workers,
		Edges:          edges,
		Ns:             ns,
		AllocBytes:     int64(after.TotalAlloc - before.TotalAlloc),
		Allocs:         int64(after.Mallocs - before.Mallocs),
		HeapAfterBytes: int64(after.HeapAlloc),
	}
	r.rows = append(r.rows, row)
	return row, err
}

// medianRows merges the rows of several staged runs, which record the
// same calls in the same order: each row keeps the median of its time and
// memory columns and the first run's stats, and gets its per-edge columns.
func medianRows(runs [][]*ledgerRow) []*ledgerRow {
	if len(runs) == 0 {
		return nil
	}
	rows := runs[0]
	for i, row := range rows {
		median := func(col func(*ledgerRow) int64) int64 {
			vals := make([]float64, len(runs))
			for j, run := range runs {
				vals[j] = float64(col(run[i]))
			}
			return int64(summarize(vals).median)
		}
		row.Ns = median(func(r *ledgerRow) int64 { return r.Ns })
		row.AllocBytes = median(func(r *ledgerRow) int64 { return r.AllocBytes })
		row.Allocs = median(func(r *ledgerRow) int64 { return r.Allocs })
		row.HeapAfterBytes = median(func(r *ledgerRow) int64 { return r.HeapAfterBytes })
		if row.Edges > 0 {
			row.NsPerEdge = float64(row.Ns) / float64(row.Edges)
			row.AllocBytesPerEdge = float64(row.AllocBytes) / float64(row.Edges)
		}
	}
	return rows
}

// chainFunc re-runs a job over its opened stream as timed layer calls. cfg
// is the job's Config with MemBudget already resolved; alpha is the
// workload's balance bound; workers is the parallelism of the job's
// parallel stages (Workers, or RefineWorkers for a refinement job).
type chainFunc func(src hep.EdgeStream, cfg hep.Config, alpha float64, workers int, rec *recorder) (*part.Result, error)

// runStaged opens the job's input, times one ingest pass and the budget
// fit, runs the chain at one worker and then at two, and times the result
// summary. It returns the rows for the staged child to report.
func runStaged(w workload, path string, scale float64) ([]*ledgerRow, error) {
	rec := &recorder{}
	cfg := w.config(scale)
	src, closeSrc, err := w.open(path, cfg)
	if err != nil {
		return nil, err
	}
	defer closeSrc()
	m := src.NumEdges()

	if _, err := rec.stage("ooc.ingest", 1, m, func() error { return drain(src) }); err != nil {
		return nil, err
	}
	budgeted := cfg.MemBudget > 0
	fit, err := rec.stage("memmodel", 1, m, func() (err error) {
		cfg, err = hep.FitBudget(src, cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	if budgeted && cfg.Algorithm == hep.AlgoHEP {
		deg, dm, err := graph.Degrees(src)
		if err != nil {
			return nil, err
		}
		fit.Stats = map[string]float64{
			"tau":           cfg.Tau,
			"predicted_mib": mib(memmodel.Estimate(deg, dm, cfg.K, cfg.Tau).Total()),
		}
	}

	var res *part.Result
	for _, workers := range []int{1, 2} {
		rec.chain = workers
		if res, err = w.chain(src, cfg, w.alpha, workers, rec); err != nil {
			return nil, err
		}
	}
	rec.chain = 0
	rec.stage("metrics.summarize", 1, res.M, func() error {
		hep.Summarize(w.name, res)
		return nil
	})
	return rec.rows, nil
}

// drain reads src once the way the partitioners do: lent slabs from a
// chunk-lending stream, edge by edge otherwise.
func drain(src graph.EdgeStream) error {
	if cs, ok := graph.AsChunks(src); ok {
		return cs.Chunks(func(edges []graph.Edge, release func()) bool {
			release()
			return true
		})
	}
	return src.Edges(func(u, v graph.V) bool { return true })
}

// hepChain is core.HEP.Partition with the on-disk spill store
// hep.PartitionStream attaches: sharded CSR build, NE++, then informed HDRF
// over the spilled high-to-high edges.
func hepChain(src hep.EdgeStream, cfg hep.Config, alpha float64, workers int, rec *recorder) (*part.Result, error) {
	store, err := ooc.NewVarintH2H("")
	if err != nil {
		return nil, err
	}
	defer store.Close()
	var csr *graph.CSR
	build, err := rec.stage("core.build", workers, src.NumEdges(), func() (err error) {
		csr, err = core.BuildCSRSharded(src, cfg.Tau, store, shard.Options{Workers: workers})
		return err
	})
	if err != nil {
		return nil, err
	}
	build.Stats = map[string]float64{
		"csr_mib":     mib(csr.MemBytes()),
		"h2h_edges":   float64(csr.H2H().Len()),
		"spill_bytes": float64(store.Bytes()),
	}

	res := part.NewResult(csr.N(), cfg.K)
	var st core.Stats
	nepp, _ := rec.stage("core.nepp", 1, csr.InMemEdges(), func() error {
		ne := core.NewNEPP(csr, cfg.K, res, nil)
		ne.Run()
		st = ne.Stats()
		return nil
	})
	nepp.Stats = map[string]float64{"seeds": float64(st.Seeds)}
	if st.ColEntries > 0 {
		nepp.Stats["cleanup_ratio"] = float64(st.CleanupRemoved) / float64(st.ColEntries)
	}

	if h2h := csr.H2H(); h2h.Len() > 0 {
		_, err = rec.stage("stream.hdrf", workers, h2h.Len(), func() error {
			return stream.RunHDRFParallel(h2hStream{h2h, csr.N()}, res, csr.Degrees(),
				stream.DefaultLambda, alpha, csr.M(), shard.Options{Workers: workers})
		})
	}
	return res, err
}

// h2hStream adapts the spill store to graph.EdgeStream, as core.HEP does.
type h2hStream struct {
	store graph.H2HStore
	n     int
}

func (s h2hStream) NumVertices() int { return s.n }

func (s h2hStream) NumEdges() int64 { return s.store.Len() }

func (s h2hStream) Edges(yield func(u, v graph.V) bool) error { return s.store.Edges(yield) }

// hdrfChain is stream.HDRF.Partition. With more than one worker that is the
// exact-degree pre-pass plus sharded placement; with one it is the single
// sequential pass over partial degrees, so the exact pre-pass is timed on
// its own beside the chain.
func hdrfChain(src hep.EdgeStream, cfg hep.Config, alpha float64, workers int, rec *recorder) (*part.Result, error) {
	m := src.NumEdges()
	var res *part.Result
	if workers <= 1 {
		probe, err := rec.stage("shard.degrees", 1, m, func() error {
			_, _, err := graph.Degrees(src)
			return err
		})
		if err != nil {
			return nil, err
		}
		probe.Chain = 0 // not part of the job at one worker

		h := &stream.HDRF{Lambda: cfg.Lambda, Alpha: cfg.Alpha, Workers: 1}
		_, err = rec.stage("stream.hdrf", 1, m, func() (err error) {
			res, err = h.Partition(src, cfg.K)
			return err
		})
		return res, err
	}
	opts := shard.Options{Workers: workers}
	var deg []int32
	if _, err := rec.stage("shard.degrees", workers, m, func() (err error) {
		deg, m, err = shard.Degrees(src, opts)
		return err
	}); err != nil {
		return nil, err
	}
	res = part.NewResult(src.NumVertices(), cfg.K)
	_, err := rec.stage("stream.hdrf", workers, m, func() error {
		return stream.RunHDRFParallel(src, res, deg, stream.DefaultLambda, alpha, m, opts)
	})
	return res, err
}

// bufferedChain is ooc.Buffered.Partition with its degree pass also timed
// alone; the Buffered row keeps only the time and allocation beyond it.
func bufferedChain(src hep.EdgeStream, cfg hep.Config, alpha float64, workers int, rec *recorder) (*part.Result, error) {
	m := src.NumEdges()
	deg, err := rec.stage("ooc.degrees", workers, m, func() error {
		_, _, err := ooc.DegreePassParallel(src, shard.Options{Workers: workers})
		return err
	})
	if err != nil {
		return nil, err
	}
	b := &ooc.Buffered{BufferEdges: cfg.Buffer, Lambda: cfg.Lambda, Alpha: cfg.Alpha, Workers: workers}
	var res *part.Result
	row, err := rec.stage("ooc.buffered", workers, m, func() (err error) {
		res, err = b.Partition(src, cfg.K)
		return err
	})
	if err != nil {
		return nil, err
	}
	row.Ns -= deg.Ns
	row.AllocBytes -= deg.AllocBytes
	row.Allocs -= deg.Allocs
	st := b.LastStats
	row.Stats = map[string]float64{
		"expansion_share":  float64(st.ExpansionEdges) / float64(res.M),
		"regions":          float64(st.Regions),
		"parallel_batches": float64(st.ParallelBatches),
		"warm_scan_probes": float64(st.WarmScanProbes),
		"warm_rescans":     float64(st.WarmRescans),
		"peak_buffer_mib":  mib(st.PeakBufferBytes),
	}
	return res, nil
}

// refineChain is refine.Refined.Partition: the inner HDRF run with a
// Capture sink, then the move rounds at the chain's worker count.
func refineChain(src hep.EdgeStream, cfg hep.Config, alpha float64, workers int, rec *recorder) (*part.Result, error) {
	m := src.NumEdges()
	capture := &refine.Capture{}
	h := &stream.HDRF{Lambda: cfg.Lambda, Alpha: cfg.Alpha, Workers: cfg.Workers}
	h.SetSink(capture)
	var res *part.Result
	if _, err := rec.stage("stream.hdrf", cfg.Workers, m, func() (err error) {
		res, err = h.Partition(src, cfg.K)
		return err
	}); err != nil {
		return nil, err
	}
	var st refine.Stats
	row, err := rec.stage("refine", workers, res.M, func() (err error) {
		st, err = refine.Run(res, capture.Edges, capture.Parts,
			refine.Options{Mode: cfg.Refine, Rounds: cfg.RefineRounds, Workers: workers})
		return err
	})
	if err != nil {
		return nil, err
	}
	row.Stats = map[string]float64{
		"rounds":          float64(st.Rounds),
		"moves_applied":   float64(st.Applied),
		"gain_recomputes": float64(st.GainRecomputes),
		"reverted_rounds": float64(st.RevertedRounds),
	}
	if st.GainRecomputes > 0 {
		row.Stats["move_yield"] = float64(st.Applied) / float64(st.GainRecomputes)
	}
	return res, nil
}

// mib converts bytes to MiB.
func mib(b int64) float64 { return float64(b) / (1 << 20) }
