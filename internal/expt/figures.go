package expt

import (
	"fmt"
	"math"

	"hep/internal/core"
	"hep/internal/dne"
	"hep/internal/graph"
	"hep/internal/hybrid"
	"hep/internal/memmodel"
	"hep/internal/metrics"
	"hep/internal/mlp"
	"hep/internal/ne"
	"hep/internal/ooc"
	"hep/internal/part"
	"hep/internal/stream"
)

// Fig2Row is one degree bucket of Figure 2: vertex fraction plus the mean
// replication factor under HDRF and NE.
type Fig2Row struct {
	Dataset          string
	Bucket           string
	FractionVertices float64
	HDRF             float64
	NE               float64
}

// Figure2 reproduces Figure 2: replication factor per vertex-degree decade
// for HDRF and NE at k=32, together with the degree distribution, on the
// LJ and WI stand-ins.
func Figure2(cfg Config) ([]Fig2Row, error) {
	k := 32
	var rows []Fig2Row
	for _, name := range cfg.datasets("LJ", "WI") {
		g := cfg.build(name)
		deg, _, err := graph.Degrees(g)
		if err != nil {
			return nil, err
		}
		hdrfRes, err := (&stream.HDRF{}).Partition(g, k)
		if err != nil {
			return nil, err
		}
		neRes, err := (&ne.NE{Seed: 1}).Partition(g, k)
		if err != nil {
			return nil, err
		}
		hb := metrics.DegreeBucketRF(deg, hdrfRes)
		nb := metrics.DegreeBucketRF(deg, neRes)
		for i := range hb {
			if hb[i].Vertices == 0 {
				continue
			}
			rows = append(rows, Fig2Row{
				Dataset:          name,
				Bucket:           fmt.Sprintf("[%d,%d]", hb[i].Lo, hb[i].Hi),
				FractionVertices: hb[i].FractionVertices,
				HDRF:             hb[i].MeanReplication,
				NE:               nb[i].MeanReplication,
			})
		}
	}
	t := newTable(cfg.out(), "Figure 2: degree vs. replication factor (k=32)")
	t.row("graph", "degree range", "frac vertices", "RF HDRF", "RF NE")
	for _, r := range rows {
		t.row(r.Dataset, r.Bucket, r.FractionVertices, r.HDRF, r.NE)
	}
	t.flush()
	return rows, cfg.report("fig2", rows)
}

// Fig5Row is one dataset of Figure 5: average degree of core-set vs
// remaining secondary-set vertices, normalized to the graph mean degree.
type Fig5Row struct {
	Dataset  string
	NormCore float64
	NormSec  float64
}

// Figure5 reproduces Figure 5 by running pure NE++ (τ=∞) at k=32 and
// reading the core/secondary degree statistics.
func Figure5(cfg Config) ([]Fig5Row, error) {
	var rows []Fig5Row
	for _, name := range cfg.datasets("LJ", "OK", "BR", "WI", "IT", "TW", "FR", "UK") {
		g := cfg.build(name)
		_, m, err := graph.Degrees(g)
		if err != nil {
			return nil, err
		}
		mean := graph.MeanDegree(g.NumVertices(), m)
		h := &core.HEP{Tau: math.Inf(1)}
		if _, err := h.Partition(g, 32); err != nil {
			return nil, err
		}
		st := h.LastStats
		row := Fig5Row{Dataset: name}
		if st.CoreCount > 0 {
			row.NormCore = float64(st.CoreDegSum) / float64(st.CoreCount) / mean
		}
		if st.SecCount > 0 {
			row.NormSec = float64(st.SecDegSum) / float64(st.SecCount) / mean
		}
		rows = append(rows, row)
	}
	t := newTable(cfg.out(), "Figure 5: normalized average degree of C vs S\\C (k=32)")
	t.row("graph", "C", "S\\C")
	for _, r := range rows {
		t.row(r.Dataset, r.NormCore, r.NormSec)
	}
	t.flush()
	return rows, cfg.report("fig5", rows)
}

// Fig7Row is one dataset of Figure 7: the fraction of column-array entries
// removed during clean-up.
type Fig7Row struct {
	Dataset  string
	Fraction float64
}

// Figure7 reproduces Figure 7 (lazy edge removal effectiveness) with NE++
// at τ=10, k=32.
func Figure7(cfg Config) ([]Fig7Row, error) {
	var rows []Fig7Row
	for _, name := range cfg.datasets("LJ", "OK", "BR", "WI", "IT", "TW", "FR", "UK") {
		g := cfg.build(name)
		h := &core.HEP{Tau: 10}
		if _, err := h.Partition(g, 32); err != nil {
			return nil, err
		}
		st := h.LastStats
		frac := 0.0
		if st.ColEntries > 0 {
			frac = float64(st.CleanupRemoved) / float64(st.ColEntries)
		}
		rows = append(rows, Fig7Row{Dataset: name, Fraction: frac})
	}
	t := newTable(cfg.out(), "Figure 7: fraction of column array removed in clean-up (k=32)")
	t.row("graph", "fraction removed")
	for _, r := range rows {
		t.row(r.Dataset, r.Fraction)
	}
	t.flush()
	return rows, cfg.report("fig7", rows)
}

// Fig8Row is one (dataset, k, algorithm) cell of Figure 8.
type Fig8Row struct {
	Dataset   string
	K         int
	Algorithm string
	RF        float64
	Seconds   float64
	HeapBytes int64
	// ModelBytes is the §4.2 analytic footprint (HEP rows only): the
	// measured heap is noisy at reduced dataset scales, while the model —
	// cross-validated against the real CSR in internal/memmodel tests —
	// exposes the τ memory knob at any scale.
	ModelBytes int64
	Balance    float64
	Skipped    bool
}

// Figure8 reproduces the main evaluation (Figure 8): replication factor,
// run-time and memory overhead of HEP-{100,10,1} against the seven
// baselines for k ∈ {4, 32, 128, 256}. With SkipSlow, the partitioners the
// paper marks OOT/FAIL on big graphs are skipped above a size threshold.
func Figure8(cfg Config) ([]Fig8Row, error) {
	var rows []Fig8Row
	for _, name := range cfg.datasets("OK", "IT", "TW") {
		g := cfg.build(name)
		deg, m, err := graph.Degrees(g)
		if err != nil {
			return nil, err
		}
		big := g.NumEdges() > 2_000_000
		for _, k := range cfg.ks(4, 32, 128, 256) {
			for _, a := range fig8Algorithms() {
				slow := a.Name() == "METIS" || a.Name() == "ADWISE" || a.Name() == "SNE"
				if cfg.SkipSlow && big && slow {
					rows = append(rows, Fig8Row{Dataset: name, K: k, Algorithm: a.Name(), Skipped: true})
					continue
				}
				// HEP spills E_h2h to an external file, as in the paper
				// (§3.2.1) — the memory knob is invisible otherwise.
				var spill *ooc.VarintH2H
				if h, ok := a.(*core.HEP); ok {
					var err error
					spill, err = ooc.NewVarintH2H("")
					if err != nil {
						return nil, err
					}
					h.H2HStore = spill
				}
				st, _, err := Measure(a, g, k)
				if spill != nil {
					if cerr := spill.Close(); cerr != nil && err == nil {
						err = cerr
					}
				}
				if err != nil {
					return nil, fmt.Errorf("%s on %s k=%d: %v", a.Name(), name, k, err)
				}
				row := Fig8Row{
					Dataset: name, K: k, Algorithm: a.Name(),
					RF: st.ReplicationFactor, Seconds: st.Seconds,
					HeapBytes: st.HeapBytes, Balance: st.Balance,
				}
				if h, ok := a.(*core.HEP); ok {
					row.ModelBytes = memmodel.Estimate(deg, m, k, h.Tau).Total()
				}
				rows = append(rows, row)
			}
		}
	}
	t := newTable(cfg.out(), "Figure 8: replication factor / run-time / memory")
	t.row("graph", "k", "algorithm", "RF", "time(s)", "mem(MiB)", "model(MiB)", "alpha")
	for _, r := range rows {
		if r.Skipped {
			t.row(r.Dataset, r.K, r.Algorithm, "OOT", "-", "-", "-", "-")
			continue
		}
		model := "-"
		if r.ModelBytes > 0 {
			model = mib(r.ModelBytes)
		}
		t.row(r.Dataset, r.K, r.Algorithm, r.RF, r.Seconds, mib(r.HeapBytes), model, r.Balance)
	}
	t.flush()
	return rows, cfg.report("fig8", rows)
}

func fig8Algorithms() []part.Algorithm {
	return []part.Algorithm{
		&core.HEP{Tau: 100},
		&core.HEP{Tau: 10},
		&core.HEP{Tau: 1},
		&stream.ADWISE{},
		&stream.HDRF{},
		&stream.DBH{},
		&ne.SNE{},
		&ne.NE{Seed: 1},
		&dne.DNE{Workers: 2, Seed: 1},
		&mlp.MLP{Seed: 1},
	}
}

// Fig9Row is one (dataset, τ, k) cell of Figure 9: simple hybrid baseline
// normalized to HEP, plus the edge-type split.
type Fig9Row struct {
	Dataset string
	Tau     float64
	K       int
	// Ratios are baseline/HEP (>1 means HEP is better on that axis).
	RFRatio   float64
	TimeRatio float64
	MemRatio  float64
	// H2HFraction is |G_H2H|/|E| at this τ (panel d/h/l/p/t of Figure 9).
	H2HFraction float64
}

// Figure9 reproduces the simple-hybrid comparison of §5.4.
func Figure9(cfg Config) ([]Fig9Row, error) {
	var rows []Fig9Row
	for _, name := range cfg.datasets("OK", "IT", "TW") {
		g := cfg.build(name)
		for _, tau := range []float64{100, 10, 1} {
			for _, k := range cfg.ks(4, 32, 128, 256) {
				hepStats, _, err := Measure(&core.HEP{Tau: tau}, g, k)
				if err != nil {
					return nil, err
				}
				simple := &hybrid.Simple{Tau: tau, Seed: 11}
				simpleStats, _, err := Measure(simple, g, k)
				if err != nil {
					return nil, err
				}
				row := Fig9Row{
					Dataset: name, Tau: tau, K: k,
					H2HFraction: simple.LastSplit.H2HFraction(),
				}
				if hepStats.ReplicationFactor > 0 {
					row.RFRatio = simpleStats.ReplicationFactor / hepStats.ReplicationFactor
				}
				if hepStats.Seconds > 0 {
					row.TimeRatio = simpleStats.Seconds / hepStats.Seconds
				}
				if hepStats.HeapBytes > 0 {
					row.MemRatio = float64(simpleStats.HeapBytes) / float64(hepStats.HeapBytes)
				}
				rows = append(rows, row)
			}
		}
	}
	t := newTable(cfg.out(), "Figure 9: simple hybrid (NE + random) normalized to HEP")
	t.row("graph", "tau", "k", "RF ratio", "time ratio", "mem ratio", "H2H frac")
	for _, r := range rows {
		t.row(r.Dataset, r.Tau, r.K, r.RFRatio, r.TimeRatio, r.MemRatio, r.H2HFraction)
	}
	t.flush()
	return rows, cfg.report("fig9", rows)
}
