package expt

import (
	"time"

	"hep/internal/graph"
	"hep/internal/part"
	"hep/internal/shard"
	"hep/internal/stream"
)

// TableShardRow is one (dataset, k, W) point of the parallel scaling table:
// informed-HDRF placement throughput through the sharded engine against one
// worker (sequential HDRF), with the quality the parallelism costs.
type TableShardRow struct {
	Dataset string
	K       int
	Workers int // 1 = the engine's single-goroutine path (sequential HDRF)
	NsEdge  float64
	Speedup float64 // sequential ns/edge ÷ this row's ns/edge
	RF      float64
	Balance float64
}

// TableShard measures the parallel sharded streaming engine (internal/shard)
// across worker counts on a power-law stand-in: wall-clock per edge, speedup
// over one worker (sequential HDRF), and the replication factor / balance
// drift the bounded-staleness load view costs. README's "Parallel
// streaming" table comes from here (`hep-bench -exp shard -workers
// 1,2,4,8`). Speedup tracks the cores actually available — on a
// single-core host the W > 1 rows only show the engine's overhead.
func TableShard(cfg Config) ([]TableShardRow, error) {
	var rows []TableShardRow
	for _, name := range cfg.datasets("TW") {
		g := cfg.build(name)
		deg, m, err := graph.Degrees(g)
		if err != nil {
			return nil, err
		}
		n := g.NumVertices()
		for _, k := range cfg.ks(32) {
			// The one-worker baseline always runs once per k, so every row's
			// speedup has a denominator even when the -workers list omits 1.
			seqRes := part.NewResult(n, k)
			start := time.Now()
			err := stream.RunHDRFParallel(g, seqRes, deg, stream.DefaultLambda, 1.05, m, shard.Options{Workers: 1})
			if err != nil {
				return nil, err
			}
			seqNs := float64(time.Since(start).Nanoseconds()) / float64(m)
			for _, w := range cfg.workers(1, 2, 4, 8) {
				res, ns := seqRes, seqNs
				if w > 1 {
					res = part.NewResult(n, k)
					start := time.Now()
					err := stream.RunHDRFParallel(g, res, deg, stream.DefaultLambda, 1.05, m,
						shard.Options{Workers: w})
					if err != nil {
						return nil, err
					}
					ns = float64(time.Since(start).Nanoseconds()) / float64(m)
				}
				speedup := 0.0
				if ns > 0 {
					speedup = seqNs / ns
				}
				rows = append(rows, TableShardRow{
					Dataset: name,
					K:       k,
					Workers: w,
					NsEdge:  ns,
					Speedup: speedup,
					RF:      res.ReplicationFactor(),
					Balance: res.Balance(),
				})
			}
		}
	}
	t := newTable(cfg.out(), "Parallel sharded streaming (informed HDRF, exact degrees)")
	t.row("graph", "k", "W", "ns/edge", "speedup", "RF", "balance")
	for _, r := range rows {
		t.row(r.Dataset, r.K, r.Workers, r.NsEdge, r.Speedup, r.RF, r.Balance)
	}
	t.flush()
	return rows, cfg.report("shard", rows)
}
