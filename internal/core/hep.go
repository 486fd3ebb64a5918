package core

import (
	"fmt"
	"math"

	"hep/internal/graph"
	"hep/internal/obs"
	"hep/internal/part"
	"hep/internal/shard"
	"hep/internal/stream"
)

// HEP is the Hybrid Edge Partitioner (paper §3): edges incident to at least
// one low-degree vertex are partitioned in memory by NE++, edges between
// two high-degree vertices by informed stateful streaming with HDRF
// scoring. Tau is the memory knob: lower values prune more of the graph out
// of memory at the cost of replication factor (paper §4.4).
type HEP struct {
	part.SinkHolder

	// Tau is the degree threshold factor τ: v is high-degree iff
	// d(v) > τ·mean degree. math.Inf(1) disables pruning, turning HEP into
	// pure NE++. The paper evaluates τ ∈ {100, 10, 1}.
	Tau float64
	// Alpha is the balance bound α ≥ 1 for the streaming phase (default
	// 1.0: perfect balance, matching the paper's reported behavior).
	Alpha float64
	// Lambda is the HDRF balance weight (default 1.1, Appendix A).
	Lambda float64
	// H2HStore overrides the spill store for E_h2h (default in-memory;
	// use ooc.NewVarintH2H for out-of-core spilling). Stores replay edge by
	// edge; the streaming phase's engine copies them into slabs
	// (shard.Lend).
	H2HStore graph.H2HStore
	// RandomStream replaces the informed HDRF streaming phase with random
	// streaming (ablation: isolates the value of informed streaming).
	RandomStream bool
	// Seed drives RandomStream.
	Seed int64
	// Tracer observes NE++ column-array accesses (paging simulation).
	Tracer Tracer
	// Workers is the number of batch-engine workers (internal/shard; 0 =
	// one) that place E_h2h in the informed streaming phase (§3.3),
	// against the replica state NE++ left behind. One worker gives the
	// exact sequential informed-HDRF pass. The CSR build and NE++ run
	// sequentially at every worker count.
	Workers int

	// Obs is the observability hook (nil = disabled): the CSR build, NE++
	// and the h2h streaming phase record spans; the streaming phase folds
	// engine counters into it.
	Obs *obs.Obs

	// LastStats holds the NE++ statistics of the most recent run.
	LastStats Stats
}

// Name implements part.Algorithm, following the paper's HEP-τ convention.
func (h *HEP) Name() string {
	if math.IsInf(h.Tau, 1) || h.Tau == 0 {
		return "NE++"
	}
	return fmt.Sprintf("HEP-%g", h.Tau)
}

func (h *HEP) params() (tau, alpha, lambda float64) {
	tau = h.Tau
	if tau == 0 {
		tau = math.Inf(1)
	}
	alpha = h.Alpha
	if alpha < 1 {
		alpha = 1.0
	}
	lambda = h.Lambda
	if lambda == 0 {
		lambda = stream.DefaultLambda
	}
	return tau, alpha, lambda
}

// Partition implements part.Algorithm: it builds the pruned CSR (two passes
// over src), runs NE++, then streams E_h2h.
func (h *HEP) Partition(src graph.EdgeStream, k int) (*part.Result, error) {
	tau, _, _ := h.params()
	sp := h.Obs.Span("csr-build")
	csr, err := graph.BuildCSR(src, tau, h.H2HStore)
	if err != nil {
		return nil, err
	}
	sp.Edges(csr.M()).End()
	return h.PartitionCSR(csr, k)
}

// PartitionCSR runs HEP over a pre-built CSR. The CSR is consumed (NE++
// removes edges); build a fresh one per run.
func (h *HEP) PartitionCSR(csr *graph.CSR, k int) (*part.Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: k must be ≥ 1, got %d", k)
	}
	_, alpha, lambda := h.params()

	res := part.NewResult(csr.N(), k)
	res.Sink = h.Sink

	h.Obs.SetTotalEdges(csr.M())

	// Phase 1: in-memory partitioning via NE++ (§3.2).
	sp := h.Obs.Span("ne++")
	ne := NewNEPP(csr, k, res, h.Tracer)
	ne.Run()
	h.LastStats = ne.Stats()
	h.Obs.Counters().Add(0, obs.CtrEdgesStreamed, res.M)
	res.SampleQuality(h.Obs)
	sp.Edges(res.M).End()

	// Phase 2: informed stateful streaming over E_h2h (§3.3). The replica
	// sets in res carry the NE++ state, so HDRF placements are informed.
	if csr.H2H().Len() > 0 {
		h2h := h2hStream{store: csr.H2H(), n: csr.N()}
		sp := h.Obs.Span("h2h-stream").Edges(csr.H2H().Len())
		var err error
		if h.RandomStream {
			err = stream.RunRandom(h2h, res, h.Seed, alpha, csr.M())
		} else {
			err = stream.RunHDRFParallel(h2h, res, csr.Degrees(), lambda, alpha, csr.M(),
				shard.Options{Workers: max(h.Workers, 1), Obs: h.Obs})
		}
		if err != nil {
			return nil, err
		}
		res.SampleQuality(h.Obs)
		sp.End()
	}
	return res, nil
}

// h2hStream adapts an H2HStore to graph.EdgeStream.
type h2hStream struct {
	store graph.H2HStore
	n     int
}

func (s h2hStream) NumVertices() int { return s.n }

func (s h2hStream) NumEdges() int64 { return s.store.Len() }

func (s h2hStream) Edges(yield func(u, v graph.V) bool) error {
	return s.store.Edges(yield)
}
