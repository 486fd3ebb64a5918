package stream

import (
	"hep/internal/graph"
	"hep/internal/obs"
	"hep/internal/part"
	"hep/internal/shard"
)

// HDRF is the High-Degree Replicated First streaming partitioner (Petroni
// et al., CIKM 2015), the strongest stateful streaming baseline in the
// paper's evaluation and the scoring function of HEP's streaming phase.
//
// The standalone algorithm observes degrees incrementally ("partial
// degrees") as the stream goes by, exactly like the reference
// implementation; set ExactDegrees to give it a free first pass over the
// stream (used in ablations).
type HDRF struct {
	part.SinkHolder

	// Lambda is the balance weight λ (paper Appendix A uses 1.1).
	Lambda float64
	// Alpha is the balance bound α ≥ 1 of §2 (default 1.05).
	Alpha float64
	// ExactDegrees switches from streamed partial degrees to a pre-pass
	// computing exact degrees.
	ExactDegrees bool
	// Workers is the number of placement workers of the batch engine
	// (internal/shard; 0 = one). One worker gives the exact sequential
	// HDRF pass. More workers cannot observe partial degrees in stream
	// order, so they always take the exact-degree pre-pass, which runs
	// sequentially.
	Workers int
	// BatchEdges overrides the engine's fan-out batch size (0 = default).
	BatchEdges int
	// Obs is the observability hook (nil = disabled): the degree pass and
	// the streaming pass record phase spans, and the engine folds hot-path
	// counters and per-batch quality samples into it.
	Obs *obs.Obs
}

// Name implements part.Algorithm.
func (h *HDRF) Name() string { return "HDRF" }

func (h *HDRF) params() (lambda, alpha float64) {
	lambda, alpha = h.Lambda, h.Alpha
	if lambda == 0 {
		lambda = DefaultLambda
	}
	if alpha == 0 {
		alpha = 1.05
	}
	return lambda, alpha
}

// Partition implements part.Algorithm.
func (h *HDRF) Partition(src graph.EdgeStream, k int) (*part.Result, error) {
	lambda, alpha := h.params()
	res := part.NewResult(src.NumVertices(), k)
	res.Sink = h.Sink
	opts := shard.Options{Workers: max(h.Workers, 1), BatchEdges: h.BatchEdges, Obs: h.Obs.Counters(), Hub: h.Obs}
	pass := hdrfPass{lambda: lambda}
	m := src.NumEdges()
	if h.ExactDegrees || opts.Workers > 1 {
		// The exact pre-pass counts the real m, so a count-less stream
		// (NumEdges() == 0) still gets the α·m/k bound.
		sp := h.Obs.Span("degree-pass")
		var err error
		pass.deg, m, err = graph.Degrees(src)
		if err != nil {
			return nil, err
		}
		sp.Edges(m).End()
	} else {
		pass.deg, pass.partial = make([]int32, res.N), true
	}
	if m > 0 {
		// Per-pass denominator: the progress reporter scopes percentages to
		// the current root phase, so each pass runs 0→100% over m edges.
		h.Obs.SetTotalEdges(m)
	}
	pass.capacity, pass.totalM = Capacity(alpha, m, k), m

	sp := h.Obs.Span("stream")
	if err := pass.run(src, res, opts); err != nil {
		return nil, err
	}
	sp.Edges(res.M).End()
	return res, nil
}
