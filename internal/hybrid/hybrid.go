// Package hybrid implements the *simple* hybrid baseline of paper §5.4:
// the graph is split at the same τ threshold HEP uses, but G_REST is
// partitioned by the reference NE (not NE++) and G_H2H by *random* (not
// informed HDRF) streaming. Figure 9 normalizes this baseline against HEP
// to show how much of HEP's win is design (NE++ + informed HDRF) rather
// than hybridization per se.
package hybrid

import (
	"fmt"

	"hep/internal/graph"
	"hep/internal/ne"
	"hep/internal/part"
	"hep/internal/stream"
)

// Simple is the NE + random-streaming hybrid baseline.
type Simple struct {
	part.SinkHolder

	// Tau is the degree threshold factor, as in HEP.
	Tau float64
	// Seed drives NE initialization and random streaming.
	Seed int64

	// LastSplit records the most recent G_H2H/G_REST sizes (the edge-type
	// ratios of Figure 9(d,h,l,p,t)).
	LastSplit Split
}

// Split reports how τ divided the edge set.
type Split struct {
	H2H, Rest int64
}

// H2HFraction returns |G_H2H| / |E|.
func (s Split) H2HFraction() float64 {
	total := s.H2H + s.Rest
	if total == 0 {
		return 0
	}
	return float64(s.H2H) / float64(total)
}

// Name implements part.Algorithm.
func (s *Simple) Name() string { return fmt.Sprintf("SimpleHybrid-%g", s.Tau) }

// Partition implements part.Algorithm.
func (s *Simple) Partition(src graph.EdgeStream, k int) (*part.Result, error) {
	rest, h2h, _, err := graph.SplitByTau(src, s.Tau)
	if err != nil {
		return nil, err
	}
	s.LastSplit = Split{H2H: int64(len(h2h)), Rest: int64(len(rest))}

	n := src.NumVertices()
	res := part.NewResult(n, k)
	res.Sink = s.Sink

	// In-memory half: reference NE over G_REST.
	restGraph := graph.NewMemGraph(n, rest)
	if err := ne.Run(restGraph, k, res, s.Seed, false); err != nil {
		return nil, err
	}

	// Streaming half: uninformed random streaming over G_H2H, bounded by
	// the global balance capacity.
	h2hGraph := graph.NewMemGraph(n, h2h)
	if err := stream.RunRandom(h2hGraph, res, s.Seed+1, 1.0, int64(len(rest)+len(h2h))); err != nil {
		return nil, err
	}
	return res, nil
}
