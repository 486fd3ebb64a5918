// Package part defines the common result representation shared by every
// edge partitioner in the repository: per-partition edge counts and the
// vertex-major replica table, from which all quality metrics of paper §2
// derive.
package part

import (
	"fmt"

	"hep/internal/graph"
	"hep/internal/obs"
	"hep/internal/pstate"
)

// Sink optionally receives every edge assignment as it happens. Partitioners
// tolerate a nil sink. Sinks are used to write partition files, feed the
// processing simulator, and verify the exactly-once invariant in tests.
type Sink interface {
	Assign(u, v graph.V, p int)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(u, v graph.V, p int)

// Assign implements Sink.
func (f SinkFunc) Assign(u, v graph.V, p int) { f(u, v, p) }

// Result accumulates a k-way edge partitioning of a graph with n vertices.
// A vertex v is replicated on partition p iff some edge incident to v was
// assigned to p (paper §2: V(p_i)).
//
// Replica state is vertex-major: Reps keeps one k-bit partition mask per
// vertex (pstate.Table), so "which partitions already host v" — the question
// every streaming scoring loop asks — is ⌈k/64⌉ word reads, and the resident
// set scales with the number of replicas instead of k·n/8. Loads tracks the
// per-partition edge counts with their max/min maintained incrementally;
// Counts aliases its backing slice, so existing readers keep indexing
// Counts[p] directly. Writers must go through Assign (or Warm/AddLoad) or
// the load bounds go stale.
type Result struct {
	K int
	N int
	M int64 // number of edges assigned so far

	// Counts is the per-partition edge count; it aliases Loads' backing
	// slice. Read freely; write only through Assign or AddLoad.
	Counts []int64
	// Reps is the vertex-major replica table (single source of truth).
	Reps *pstate.Table
	// Loads tracks max/min load incrementally for the scoring hot path.
	Loads *pstate.Loads

	// Sink, if non-nil, receives every assignment.
	Sink Sink
}

// NewResult returns an empty result for a graph with n vertices and k
// partitions.
func NewResult(n, k int) *Result {
	loads := pstate.NewLoads(k)
	return &Result{
		K:      k,
		N:      n,
		Counts: loads.Counts(),
		Reps:   pstate.NewTable(n, k),
		Loads:  loads,
	}
}

// Assign records edge (u,v) in partition p.
func (r *Result) Assign(u, v graph.V, p int) {
	r.Loads.Inc(p)
	r.M++
	r.Reps.Add(u, p)
	r.Reps.Add(v, p)
	if r.Sink != nil {
		r.Sink.Assign(u, v, p)
	}
}

// Warm marks v replicated on p without assigning an edge — warm-state
// construction for informed streaming (tests, ablations).
func (r *Result) Warm(v graph.V, p int) { r.Reps.Add(v, p) }

// AddLoad adds delta edges to partition p's count without touching replica
// state, keeping the load tracker consistent (cold path; tests).
func (r *Result) AddLoad(p int, delta int64) { r.Loads.Bulk(p, delta) }

// SampleQuality pushes one running-quality sample from the sequential state
// (running replica totals, incremental covered count, load tracker bounds)
// into the hub's series ring. Nil-safe; the SampleTick gate skips the gather
// entirely when sampling is off. Callers invoke it at batch, region or pass
// boundaries, never per edge.
func (r *Result) SampleQuality(o *obs.Obs) {
	if !o.SampleTick() {
		return
	}
	o.RecordSample(r.M, r.Reps.TotalReplicas(), r.Reps.Covered(),
		r.Loads.Max(), r.Loads.Min(), r.K)
}

// ReplicationFactor returns RF = (1/|V'|) Σ_i |V(p_i)| where |V'| is the
// number of vertices covered by at least one partition (isolated vertices
// are not counted; they are never replicated anywhere).
func (r *Result) ReplicationFactor() float64 {
	total, covered := r.Reps.TotalAndCovered()
	if covered == 0 {
		return 0
	}
	return float64(total) / float64(covered)
}

// MaxLoad returns the size of the largest partition. It rescans Counts so
// it stays truthful even if a test mutated Counts directly; hot paths read
// Loads.Max instead.
func (r *Result) MaxLoad() int64 {
	var max int64
	for _, c := range r.Counts {
		if c > max {
			max = c
		}
	}
	return max
}

// MinLoad returns the size of the smallest partition.
func (r *Result) MinLoad() int64 {
	if r.K == 0 {
		return 0
	}
	min := r.Counts[0]
	for _, c := range r.Counts[1:] {
		if c < min {
			min = c
		}
	}
	return min
}

// Balance returns the balancing factor α = k·maxLoad/|E| (α = 1.0 is a
// perfectly balanced partitioning; the constraint of §2 is α ≤ some bound).
func (r *Result) Balance() float64 {
	if r.M == 0 {
		return 1
	}
	return float64(r.MaxLoad()) * float64(r.K) / float64(r.M)
}

// ReplicaCounts returns, per vertex, the number of partitions covering it.
func (r *Result) ReplicaCounts() []int32 {
	return r.Reps.ReplicaCounts()
}

// VertexCounts returns |V(p_i)| for every partition.
func (r *Result) VertexCounts() []int {
	return r.Reps.VertexCounts()
}

// Validate performs internal consistency checks: counts sum to M, every
// partition with edges has a non-empty replica set, and the incremental
// load tracker agrees with the counts it tracks (catching writers that
// bypassed Assign/AddLoad and mutated Counts directly).
func (r *Result) Validate() error {
	var sum int64
	for i, c := range r.Counts {
		if c < 0 {
			return fmt.Errorf("part: negative count in partition %d", i)
		}
		sum += c
		if c > 0 && r.Reps.VertexCount(i) == 0 {
			return fmt.Errorf("part: partition %d has %d edges but no replicas", i, c)
		}
	}
	if sum != r.M {
		return fmt.Errorf("part: counts sum %d != M %d", sum, r.M)
	}
	if max, min := r.MaxLoad(), r.MinLoad(); r.Loads.Max() != max || r.Loads.Min() != min {
		return fmt.Errorf("part: load tracker (max %d, min %d) out of sync with counts (max %d, min %d); write through Assign or AddLoad, never Counts[p] directly",
			r.Loads.Max(), r.Loads.Min(), max, min)
	}
	return nil
}

// Algorithm is the uniform interface the experiment harness drives. K and
// algorithm-specific knobs are fields of the implementing struct.
type Algorithm interface {
	Name() string
	Partition(src graph.EdgeStream, k int) (*Result, error)
}

// SinkHolder is embedded by every algorithm so callers can attach an
// assignment sink before Partition; implementations copy Sink into the
// results they create.
type SinkHolder struct {
	Sink Sink
}

// SetSink implements SinkSetter.
func (s *SinkHolder) SetSink(sink Sink) { s.Sink = sink }

// SinkSetter attaches an assignment sink to an algorithm.
type SinkSetter interface {
	SetSink(Sink)
}

// Collect is a test Sink that records every assignment.
type Collect struct {
	Edges []TaggedEdge
}

// TaggedEdge is an edge together with the partition it was assigned to.
type TaggedEdge struct {
	E graph.Edge
	P int
}

// Assign implements Sink.
func (c *Collect) Assign(u, v graph.V, p int) {
	c.Edges = append(c.Edges, TaggedEdge{E: graph.Edge{U: u, V: v}, P: p})
}
