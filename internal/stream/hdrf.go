package stream

import (
	"hep/internal/graph"
	"hep/internal/obs"
	"hep/internal/part"
)

// HDRF is the High-Degree Replicated First streaming partitioner (Petroni
// et al., CIKM 2015), the strongest stateful streaming baseline in the
// paper's evaluation and the scoring function of HEP's streaming phase.
//
// The standalone algorithm observes degrees incrementally ("partial
// degrees") as the stream goes by, exactly like the reference
// implementation; set ExactDegrees to give it a free first pass over the
// stream (used in ablations, and by the facade at every Workers value
// but 1).
type HDRF struct {
	part.SinkHolder

	// Lambda is the balance weight λ (paper Appendix A uses 1.1).
	Lambda float64
	// Alpha is the balance bound α ≥ 1 of §2 (default 1.05).
	Alpha float64
	// ExactDegrees switches from streamed partial degrees to a pre-pass
	// computing exact degrees.
	ExactDegrees bool
	// Workers is ignored: HDRF places every edge with one worker.
	//
	// Deprecated: kept only for the benchmark's staged chains (bench/). Set
	// ExactDegrees for the pre-pass that Workers > 1 used to imply.
	Workers int
	// Obs is the observability hook (nil = disabled): the degree pass and
	// the streaming pass record phase spans, and the batch loop folds
	// hot-path counters and per-batch quality samples into it.
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
	pass := hdrfPass{lambda: lambda}
	m := src.NumEdges()
	if h.ExactDegrees {
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
	pass.capacity = Capacity(alpha, m, k)

	sp := h.Obs.Span("stream")
	if err := pass.run(src, res, h.Obs); err != nil {
		return nil, err
	}
	sp.Edges(res.M).End()
	return res, nil
}
