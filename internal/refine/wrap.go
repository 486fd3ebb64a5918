package refine

import (
	"fmt"

	"hep/internal/graph"
	"hep/internal/part"
)

// RunInfo records what one wrapped run looked like before and after
// refinement, for tests and the experiment harness.
type RunInfo struct {
	// InputRF, InputReplicas and InputMaxLoad describe the inner
	// algorithm's result as handed to the refinement stage (for
	// ModeSplitMerge: the x·k over-partitioning, before the merge).
	InputRF       float64
	InputReplicas int64
	InputMaxLoad  int64
	// MergeStats is ModeSplitMerge's pairing summary (zero for ModeMoves).
	MergeStats Stats
	// MoveStats summarizes the boundary-move rounds.
	MoveStats Stats
}

// Refined composes an inner algorithm with the refinement post-pass: it
// interposes a Capture sink on the inner run, refines the finalized result
// in place, and replays the final assignment to the caller's sink exactly
// once. It implements part.Algorithm and part.SinkSetter, so it slots in
// anywhere the inner algorithm did.
type Refined struct {
	part.SinkHolder
	Inner part.Algorithm
	Opts  Options

	// Last describes the most recent Partition call.
	Last RunInfo
}

// Wrap returns inner composed with the refinement pass configured by o.
func Wrap(inner part.Algorithm, o Options) *Refined {
	return &Refined{Inner: inner, Opts: o}
}

// Name implements part.Algorithm.
func (r *Refined) Name() string {
	return r.Inner.Name() + "+" + r.Opts.mode()
}

// Partition implements part.Algorithm.
func (r *Refined) Partition(src graph.EdgeStream, k int) (*part.Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("refine: k must be ≥ 1, got %d", k)
	}
	if !ValidMode(r.Opts.Mode) {
		return nil, fmt.Errorf("refine: unknown mode %q (want %q or %q)", r.Opts.Mode, ModeMoves, ModeSplitMerge)
	}
	ss, ok := r.Inner.(part.SinkSetter)
	if !ok {
		return nil, fmt.Errorf("refine: algorithm %q cannot attach the capture sink", r.Inner.Name())
	}
	runK := k
	if r.Opts.mode() == ModeSplitMerge {
		runK = SplitFactor * k
	}
	// Size the capture once from a positive count; 0 ("count unknown") or
	// a negative count grows by append. A count that is off only costs
	// room: checkLive compares what was captured with res.M.
	rec := &Capture{}
	if m := src.NumEdges(); m > 0 {
		rec.Edges, rec.Parts = make([]graph.Edge, 0, m), make([]int32, 0, m)
	}
	ss.SetSink(rec)
	res, err := r.Inner.Partition(src, runK)
	ss.SetSink(nil)
	if err != nil {
		return nil, err
	}

	if err := checkLive(res, rec.Edges, rec.Parts); err != nil {
		return nil, err
	}
	r.Last = RunInfo{
		InputRF:       res.ReplicationFactor(),
		InputReplicas: res.Reps.TotalReplicas(),
		InputMaxLoad:  res.MaxLoad(),
	}

	sp := r.Opts.Obs.Span("refine")
	if r.Opts.mode() == ModeSplitMerge {
		merged, mst, err := SplitMerge(res, rec.Edges, rec.Parts, k, r.Opts)
		if err != nil {
			sp.End()
			return nil, err
		}
		r.Last.MergeStats = mst
		res = merged
	}
	st, err := Run(res, rec.Edges, rec.Parts, r.Opts)
	sp.End()
	if err != nil {
		return nil, err
	}
	r.Last.MoveStats = st

	// The caller's sink sees the refined assignment, each edge exactly
	// once; the result keeps delivering any post-hoc Assign calls there.
	rec.Replay(r.Sink)
	res.Sink = r.Sink
	return res, nil
}
