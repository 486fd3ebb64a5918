// Package procsim simulates distributed graph processing over an edge
// partitioning, standing in for the 32-machine Spark/GraphX cluster of
// paper §5.3.
//
// The simulator executes the *real* algorithms (PageRank, BFS, Connected
// Components) over the per-partition subgraphs with PowerGraph-style
// master/mirror vertex replication, so numerical results are exact and
// verifiable; only wall-clock time is modeled, as
//
//	T = Σ_iterations [ max_p(compute_p)·cEdge + max_p(comm_p)·cMsg + cIter ]
//
// where comm_p counts the synchronization messages machine p exchanges for
// active vertices (one partial up and one broadcast down per mirror). The
// replication factor of the partitioning therefore drives communication
// volume exactly as in the real system — the causal link §5.3 evaluates.
package procsim

import (
	"fmt"
	"math/rand"
	"time"

	"hep/internal/graph"
	"hep/internal/part"
)

// Collector captures per-partition edge lists during partitioning; it
// implements part.Sink.
type Collector struct {
	Parts [][]graph.Edge
}

// NewCollector returns a Collector for k partitions.
func NewCollector(k int) *Collector {
	return &Collector{Parts: make([][]graph.Edge, k)}
}

// Assign implements part.Sink.
func (c *Collector) Assign(u, v graph.V, p int) {
	c.Parts[p] = append(c.Parts[p], graph.Edge{U: u, V: v})
}

// CostModel holds the time constants of the simulation. The defaults are
// calibrated so that the paper's workloads land in the same order of
// magnitude as Table 4 (hundreds of seconds for 100 PageRank iterations on
// a hundred-million-edge graph across 32 machines).
type CostModel struct {
	// EdgePerSec is the per-machine edge processing rate.
	EdgePerSec float64
	// MsgPerSec is the per-machine message throughput (up + down).
	MsgPerSec float64
	// IterOverhead is the fixed per-superstep scheduling latency.
	IterOverhead float64
}

// DefaultCostModel mirrors a Spark executor on 10-GBit Ethernet: tens of
// millions of edges per second compute, a few million sync messages per
// second, ~50 ms scheduling overhead per superstep.
func DefaultCostModel() CostModel {
	return CostModel{
		EdgePerSec:   30e6,
		MsgPerSec:    2.5e6,
		IterOverhead: 0.05,
	}
}

// Cluster is a simulated vertex-cut cluster executing one partitioning.
type Cluster struct {
	K     int
	N     int
	Parts [][]graph.Edge
	Model CostModel

	master  []int32 // master partition of every covered vertex
	repOff  []int32 // offsets into repFlat: replica partitions per vertex
	repFlat []int32
	degree  []int32
}

// NewCluster builds the simulated cluster from a partitioning result and
// the captured per-partition edges.
func NewCluster(res *part.Result, col *Collector, model CostModel) (*Cluster, error) {
	if len(col.Parts) != res.K {
		return nil, fmt.Errorf("procsim: collector has %d partitions, result %d", len(col.Parts), res.K)
	}
	c := &Cluster{K: res.K, N: res.N, Parts: col.Parts, Model: model}
	// The vertex-major replica table hands over each vertex's partitions in
	// ascending order, so master (the lowest hosting partition) and the
	// per-vertex replica lists come out of a single vertex scan.
	c.master = make([]int32, res.N)
	counts := make([]int32, res.N)
	var total int32
	for v := 0; v < res.N; v++ {
		c.master[v] = -1
		counts[v] = int32(res.Reps.Count(graph.V(v)))
		total += counts[v]
	}
	c.repOff = make([]int32, res.N+1)
	var off int32
	for v := 0; v < res.N; v++ {
		c.repOff[v] = off
		off += counts[v]
	}
	c.repOff[res.N] = off
	c.repFlat = make([]int32, total)
	for v := 0; v < res.N; v++ {
		i := c.repOff[v]
		res.Reps.RangeVertex(graph.V(v), func(p int) bool {
			if c.master[v] < 0 {
				c.master[v] = int32(p)
			}
			c.repFlat[i] = int32(p)
			i++
			return true
		})
	}
	c.degree = make([]int32, res.N)
	for _, edges := range col.Parts {
		for _, e := range edges {
			c.degree[e.U]++
			c.degree[e.V]++
		}
	}
	return c, nil
}

func (c *Cluster) replicas(v graph.V) []int32 {
	return c.repFlat[c.repOff[v]:c.repOff[v+1]]
}

// Report is the outcome of one simulated processing job.
type Report struct {
	Algorithm  string
	Iterations int
	Messages   int64   // total sync messages
	SimSeconds float64 // modeled wall-clock time
	WallClock  time.Duration
}

// iterCost folds one superstep into the simulated clock: per-machine
// compute (edges scanned) and per-machine messages, combined by the
// bulk-synchronous max rule.
func (c *Cluster) iterCost(compute []int64, comm []int64) (float64, int64) {
	var maxC, maxM, totalM int64
	for p := 0; p < c.K; p++ {
		if compute[p] > maxC {
			maxC = compute[p]
		}
		if comm[p] > maxM {
			maxM = comm[p]
		}
		totalM += comm[p]
	}
	t := float64(maxC)/c.Model.EdgePerSec + float64(maxM)/c.Model.MsgPerSec + c.Model.IterOverhead
	return t, totalM / 2 // each message was counted at sender and receiver
}

// chargeSync adds the master/mirror synchronization messages of an active
// vertex: every mirror sends one partial to the master and receives one
// broadcast (2 messages at the mirror machine, 2 at the master machine per
// mirror).
func (c *Cluster) chargeSync(v graph.V, comm []int64) {
	reps := c.replicas(v)
	if len(reps) <= 1 {
		return
	}
	master := c.master[v]
	for _, p := range reps {
		if p == master {
			comm[p] += 2 * int64(len(reps)-1)
		} else {
			comm[p] += 2
		}
	}
}

// PageRank runs the canonical damped PageRank for iters supersteps on the
// undirected graph and returns the ranks plus the simulation report. Every
// vertex is active every iteration, the most communication-intensive
// workload of §5.3.
func (c *Cluster) PageRank(iters int, damping float64) ([]float64, Report) {
	rank := make([]float64, c.N)
	covered := 0
	for v := 0; v < c.N; v++ {
		if c.master[v] >= 0 {
			covered++
		}
	}
	if covered == 0 {
		return rank, Report{Algorithm: "PageRank"}
	}
	for v := 0; v < c.N; v++ {
		if c.master[v] >= 0 {
			rank[v] = 1 / float64(covered)
		}
	}
	start := time.Now()
	partial := make([]float64, c.N)
	compute := make([]int64, c.K)
	comm := make([]int64, c.K)
	rep := Report{Algorithm: "PageRank", Iterations: iters}
	for it := 0; it < iters; it++ {
		for i := range partial {
			partial[i] = 0
		}
		for p := 0; p < c.K; p++ {
			compute[p] = int64(len(c.Parts[p]))
			comm[p] = 0
			for _, e := range c.Parts[p] {
				// Undirected: mass flows both ways.
				partial[e.V] += rank[e.U] / float64(c.degree[e.U])
				partial[e.U] += rank[e.V] / float64(c.degree[e.V])
			}
		}
		for v := 0; v < c.N; v++ {
			if c.master[v] < 0 {
				continue
			}
			rank[v] = (1-damping)/float64(covered) + damping*partial[v]
			c.chargeSync(graph.V(v), comm)
		}
		t, msgs := c.iterCost(compute, comm)
		rep.SimSeconds += t
		rep.Messages += msgs
	}
	rep.WallClock = time.Since(start)
	return rank, rep
}

// BFS runs breadth-first search from each seed in turn (the paper uses 10
// random seeds) and returns the distance array of the last run plus the
// combined report. Only frontier vertices communicate, so well-partitioned
// graphs synchronize little in late supersteps.
func (c *Cluster) BFS(seeds []graph.V) ([]int32, Report) {
	start := time.Now()
	rep := Report{Algorithm: "BFS"}
	var dist []int32
	compute := make([]int64, c.K)
	comm := make([]int64, c.K)
	for _, seed := range seeds {
		dist = make([]int32, c.N)
		for i := range dist {
			dist[i] = -1
		}
		if int(seed) >= c.N || c.master[seed] < 0 {
			continue
		}
		dist[seed] = 0
		frontier := map[graph.V]bool{seed: true}
		for level := int32(1); len(frontier) > 0; level++ {
			next := map[graph.V]bool{}
			for p := 0; p < c.K; p++ {
				compute[p] = 0
				comm[p] = 0
				for _, e := range c.Parts[p] {
					if frontier[e.U] || frontier[e.V] {
						compute[p]++
						if frontier[e.U] && dist[e.V] < 0 {
							dist[e.V] = level
							next[e.V] = true
						}
						if frontier[e.V] && dist[e.U] < 0 {
							dist[e.U] = level
							next[e.U] = true
						}
					}
				}
			}
			for v := range next {
				c.chargeSync(v, comm)
			}
			t, msgs := c.iterCost(compute, comm)
			rep.SimSeconds += t
			rep.Messages += msgs
			rep.Iterations++
			frontier = next
		}
	}
	rep.WallClock = time.Since(start)
	return dist, rep
}

// ConnectedComponents runs label propagation to a fixed point and returns
// the component label per vertex (minimum vertex id in the component) plus
// the report. Active vertices shrink every iteration, the cheapest workload
// of §5.3.
func (c *Cluster) ConnectedComponents() ([]int64, Report) {
	start := time.Now()
	label := make([]int64, c.N)
	for v := 0; v < c.N; v++ {
		if c.master[v] >= 0 {
			label[v] = int64(v)
		} else {
			label[v] = -1
		}
	}
	rep := Report{Algorithm: "CC"}
	compute := make([]int64, c.K)
	comm := make([]int64, c.K)
	changedSet := make(map[graph.V]bool)
	for {
		for p := range compute {
			compute[p] = 0
			comm[p] = 0
		}
		for k := range changedSet {
			delete(changedSet, k)
		}
		for p := 0; p < c.K; p++ {
			compute[p] = int64(len(c.Parts[p]))
			for _, e := range c.Parts[p] {
				if label[e.U] < label[e.V] {
					label[e.V] = label[e.U]
					changedSet[e.V] = true
				} else if label[e.V] < label[e.U] {
					label[e.U] = label[e.V]
					changedSet[e.U] = true
				}
			}
		}
		for v := range changedSet {
			c.chargeSync(v, comm)
		}
		t, msgs := c.iterCost(compute, comm)
		rep.SimSeconds += t
		rep.Messages += msgs
		rep.Iterations++
		if len(changedSet) == 0 {
			break
		}
	}
	rep.WallClock = time.Since(start)
	return label, rep
}

// RandomSeeds returns n deterministic seed vertices covered by the
// partitioning.
func (c *Cluster) RandomSeeds(n int, seed int64) []graph.V {
	rng := rand.New(rand.NewSource(seed))
	var out []graph.V
	for len(out) < n {
		v := graph.V(rng.Intn(c.N))
		if c.master[v] >= 0 {
			out = append(out, v)
		}
	}
	return out
}
