package expt

import (
	"time"

	"hep/internal/graph"
	"hep/internal/part"
	"hep/internal/stream"
)

// TableStateRow is one k-point of the state-layer comparison: HDRF placement
// speed over the vertex-major replica table, with the table's actual
// resident bytes against the k·n/8 a partition-major layout would pin.
type TableStateRow struct {
	Dataset      string
	K            int
	NsEdge       float64 // per-edge placement cost (full informed-HDRF pass)
	TableMiB     float64 // resident replica-table bytes: n·⌈k/64⌉ words + k counts
	PartMajorMiB float64 // k bitsets of n bits, the replaced layout
	RF           float64
}

// TableState measures the state layer (internal/pstate) across the paper's
// k range on a power-law stand-in: per-edge HDRF placement cost and the
// replica-table resident set. README's "state layer" table comes from here
// (`hep-bench -exp state`).
func TableState(cfg Config) ([]TableStateRow, error) {
	var rows []TableStateRow
	for _, name := range cfg.datasets("TW") {
		g := cfg.build(name)
		deg, m, err := graph.Degrees(g)
		if err != nil {
			return nil, err
		}
		n := g.NumVertices()
		for _, k := range cfg.ks(32, 128, 256) {
			res := part.NewResult(n, k)
			start := time.Now()
			err := stream.PlaceHDRF(g, res, nil, deg, stream.DefaultLambda, 1.05, m, nil)
			if err != nil {
				return nil, err
			}
			elapsed := time.Since(start)
			rows = append(rows, TableStateRow{
				Dataset:      name,
				K:            k,
				NsEdge:       float64(elapsed.Nanoseconds()) / float64(m),
				TableMiB:     float64(res.Reps.Bytes()) / (1 << 20),
				PartMajorMiB: float64(int64(k)*int64((n+63)/64)*8) / (1 << 20),
				RF:           res.ReplicationFactor(),
			})
		}
	}
	t := newTable(cfg.out(), "State layer: vertex-major replica table (HDRF placement, exact degrees)")
	t.row("graph", "k", "ns/edge", "table(MiB)", "part-major(MiB)", "RF")
	for _, r := range rows {
		t.row(r.Dataset, r.K, r.NsEdge, r.TableMiB, r.PartMajorMiB, r.RF)
	}
	t.flush()
	return rows, cfg.report("state", rows)
}
