package main

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"hep"
	"hep/internal/obs"
	"hep/internal/part"
	"hep/internal/parttest"
)

// Child modes: one rep of the job as a user runs it, the same with an
// assignment sink and the exactly-once and replica checks, the same with
// Config.Obs set, or the staged pass.
const (
	modeJob      = "job"
	modeValidate = "validate"
	modeTraced   = "traced"
	modeStaged   = "staged"
)

// jobResult is what one job child reports about its run.
type jobResult struct {
	// SetupNs spans open, vertex discovery and FitBudget; WallNs spans open
	// to result.
	SetupNs int64 `json:"setup_ns"`
	WallNs  int64 `json:"wall_ns"`
	// M, Loads, Covered and Replicas describe the result for the output
	// checks.
	M        int64   `json:"m"`
	Loads    []int64 `json:"loads"`
	Covered  int     `json:"covered"`
	Replicas int64   `json:"replicas"`
	RF       float64 `json:"rf"`
	Balance  float64 `json:"balance"`
	// PeakRSSKiB is the child's peak resident set (VmHWM).
	PeakRSSKiB int64 `json:"peak_rss_kib"`
	// Tau and Buffer are the knobs FitBudget resolved.
	Tau    float64 `json:"tau"`
	Buffer int     `json:"buffer"`
	// Engine holds the program's own obs counters (traced mode only).
	Engine map[string]float64 `json:"engine,omitempty"`
}

// runJob runs the workload's job once over the file at cs.Path, as
// hep-partition does: open, resolve the budget, partition.
func runJob(w workload, cs childSpec) (jobResult, error) {
	cfg := w.config(cs.Scale)
	var col *part.Collect
	switch cs.Mode {
	case modeValidate:
		col = &part.Collect{}
		cfg.Sink = col
	case modeTraced:
		cfg.Obs = hep.NewObs(cfg.Workers)
	}

	start := time.Now()
	src, closeSrc, err := w.open(cs.Path, cfg)
	if err != nil {
		return jobResult{}, err
	}
	defer closeSrc()
	cfg, err = hep.FitBudget(src, cfg)
	if err != nil {
		return jobResult{}, err
	}
	setup := time.Since(start)
	res, err := hep.PartitionStream(src, cfg)
	if err != nil {
		return jobResult{}, err
	}
	wall := time.Since(start)

	total, covered := res.Reps.TotalAndCovered()
	out := jobResult{
		SetupNs:  setup.Nanoseconds(),
		WallNs:   wall.Nanoseconds(),
		M:        res.M,
		Loads:    res.Counts,
		Covered:  covered,
		Replicas: total,
		RF:       res.ReplicationFactor(),
		Balance:  res.Balance(),
		Tau:      cfg.Tau,
		Buffer:   cfg.Buffer,
	}
	if col != nil {
		if err := parttest.CheckExactlyOnce(src, res, col); err != nil {
			return out, fmt.Errorf("validation: %w", err)
		}
		if err := parttest.CheckReplicas(res, col); err != nil {
			return out, fmt.Errorf("validation: %w", err)
		}
	}
	if out.PeakRSSKiB, err = peakRSSKiB(); err != nil {
		return out, err
	}
	if cfg.Obs != nil {
		if err := cfg.Obs.WriteJSONFile(cs.TracePath); err != nil {
			return out, err
		}
		c := cfg.Obs.Counters()
		out.Engine = map[string]float64{
			"batches":               float64(c.Total(obs.CtrBatches)),
			"cas_retries":           float64(c.Total(obs.CtrCASRetries)),
			"reorder_stalls":        float64(c.Total(obs.CtrReorderStalls)),
			"reorder_stall_ms":      float64(c.HistRecord(obs.HistStallNs).Sum) / 1e6,
			"batch_resizes":         float64(c.Total(obs.CtrBatchResizes)),
			"bytes_copied_dispatch": float64(c.Total(obs.CtrBytesCopiedDispatch)),
			"chunk_copy_fallbacks":  float64(c.Total(obs.CtrChunkCopyFallbacks)),
		}
	}
	return out, nil
}

// peakRSSKiB returns this process's peak resident set (VmHWM) in KiB. The
// child reads it itself because wait4's ru_maxrss for a child also covers
// the parent's high-water mark, which Linux carries across exec.
func peakRSSKiB() (int64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			return strconv.ParseInt(f[1], 10, 64)
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
