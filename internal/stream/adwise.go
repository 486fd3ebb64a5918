package stream

import (
	"math"
	"math/bits"

	"hep/internal/graph"
	"hep/internal/part"
)

// ADWISE is the adaptive window-based streaming partitioner (Mayer et al.,
// ICDCS 2018): instead of committing to the next edge of the stream, it
// keeps a window of candidate edges and repeatedly assigns the
// (edge, partition) pair with the globally best score, refilling the window
// afterwards. The extra degrees of freedom trade run-time for quality
// (paper Table 1 keeps it at Θ(|E|·k); the window adds a constant factor).
type ADWISE struct {
	part.SinkHolder

	// Window is the number of buffered candidate edges (default 64).
	Window int
	// Lambda is the HDRF balance weight (default DefaultLambda).
	Lambda float64
	// Alpha is the balance bound α ≥ 1 (default 1.05).
	Alpha float64
}

// Name implements part.Algorithm.
func (a *ADWISE) Name() string { return "ADWISE" }

// Partition implements part.Algorithm.
func (a *ADWISE) Partition(src graph.EdgeStream, k int) (*part.Result, error) {
	window := a.Window
	if window <= 0 {
		window = 64
	}
	lambda := a.Lambda
	if lambda == 0 {
		lambda = DefaultLambda
	}
	alpha := a.Alpha
	if alpha == 0 {
		alpha = 1.05
	}

	n := src.NumVertices()
	res := part.NewResult(n, k)
	res.Sink = a.Sink
	capacity := Capacity(alpha, src.NumEdges(), k)
	deg := make([]int32, n) // partial degrees, as in streamed HDRF

	buf := make([]graph.Edge, 0, window)
	flushOne := func() {
		// Pick the best (edge, partition) pair over the whole window. Per
		// edge only the partitions hosting an endpoint, read from their mask
		// words, plus the least-loaded fallback are scored, not all k.
		maxLoad, minLoad := res.Loads.Max(), res.Loads.Min()
		counts := res.Counts
		denom := hdrfEpsilon + float64(maxLoad-minLoad)
		argmin := res.Loads.ArgMin()
		admissible := minLoad < capacity
		bestI, bestP, bestS := -1, -1, math.Inf(-1)
		for i, e := range buf {
			du, dv := deg[e.U], deg[e.V]
			sum := float64(du) + float64(dv)
			gu := 1 + (1 - float64(du)/sum)
			gv := 1 + (1 - float64(dv)/sum)
			for wi := range res.Reps.Words() {
				wu, wv := res.Reps.Word(e.U, wi), res.Reps.Word(e.V, wi)
				w := wu | wv
				if admissible && argmin>>6 == wi {
					w |= 1 << (uint(argmin) & 63)
				}
				base := wi << 6
				for ; w != 0; w &= w - 1 {
					b := bits.TrailingZeros64(w)
					p := base + b
					if counts[p] >= capacity {
						continue
					}
					var rep float64
					if wu>>b&1 != 0 {
						rep += gu
					}
					if wv>>b&1 != 0 {
						rep += gv
					}
					s := rep + lambda*float64(maxLoad-counts[p])/denom
					if s > bestS {
						bestI, bestP, bestS = i, p, s
					}
				}
			}
		}
		if bestI < 0 {
			bestI, bestP = 0, res.Loads.ArgMin()
		}
		e := buf[bestI]
		buf[bestI] = buf[len(buf)-1]
		buf = buf[:len(buf)-1]
		res.Assign(e.U, e.V, bestP)
	}

	err := src.Edges(func(u, v graph.V) bool {
		deg[u]++
		deg[v]++
		buf = append(buf, graph.Edge{U: u, V: v})
		if len(buf) >= window {
			flushOne()
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	for len(buf) > 0 {
		flushOne()
	}
	return res, nil
}
