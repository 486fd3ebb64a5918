// Package restream implements multi-pass (re-streaming) edge partitioning
// in the style of Nishimura & Ugander (KDD 2013), the streaming-model
// variation the paper's related work singles out (§6): the edge stream is
// replayed several times, and each pass re-places every edge using the
// complete placement state frozen from the previous pass. Later passes see
// global information a single-pass partitioner never has, closing part of
// the quality gap to in-memory partitioning at the cost of extra passes.
package restream

import (
	"fmt"

	"hep/internal/graph"
	"hep/internal/obs"
	"hep/internal/part"
	"hep/internal/pstate"
	"hep/internal/stream"
)

// Restream is the multi-pass HDRF partitioner.
type Restream struct {
	part.SinkHolder

	// Passes is the total number of streaming passes (default 3; 1 is
	// plain HDRF).
	Passes int
	// Lambda is the HDRF balance weight (default 1.1).
	Lambda float64
	// Alpha is the balance bound α ≥ 1 (default 1.05).
	Alpha float64
	// Obs is the observability hook (nil = disabled): the degree pass and
	// every streaming pass record phase spans, and the batch loop folds
	// hot-path counters and per-batch quality samples into it.
	Obs *obs.Obs
}

// Name implements part.Algorithm.
func (r *Restream) Name() string { return fmt.Sprintf("ReHDRF-%d", r.passes()) }

func (r *Restream) passes() int {
	if r.Passes <= 0 {
		return 3
	}
	return r.Passes
}

// Partition implements part.Algorithm.
func (r *Restream) Partition(src graph.EdgeStream, k int) (*part.Result, error) {
	lambda := r.Lambda
	if lambda == 0 {
		lambda = stream.DefaultLambda
	}
	alpha := r.Alpha
	if alpha == 0 {
		alpha = 1.05
	}

	// Exact-degree pre-pass.
	sp := r.Obs.Span("degree-pass")
	deg, m, err := graph.Degrees(src)
	if err != nil {
		return nil, err
	}
	sp.Edges(m).End()
	// Per-pass denominator: the progress reporter scopes percentages to the
	// current root phase, so every pass (degree or streaming) runs 0→100%
	// over the same m edges instead of sharing one cumulative total.
	r.Obs.SetTotalEdges(m)
	n := src.NumVertices()

	// Pass 1 is plain streamed HDRF with exact degrees; passes 2..P re-place
	// each edge scoring affinity against the frozen previous pass.
	var res *part.Result
	var prior *pstate.Table
	for pass := 1; pass <= r.passes(); pass++ {
		res = part.NewResult(n, k)
		name := "stream-pass-1"
		if pass > 1 {
			name = fmt.Sprintf("restream-pass-%d", pass)
		}
		if pass == r.passes() {
			res.Sink = r.Sink // only the final pass emits assignments
		}
		sp = r.Obs.Span(name)
		if err := stream.PlaceHDRF(src, res, prior, deg, lambda, alpha, m, r.Obs); err != nil {
			return nil, err
		}
		sp.Edges(m).End()
		prior = res.Reps
	}
	return res, nil
}
