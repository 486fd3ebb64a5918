// Package memmodel implements the analytical memory model of paper §4.2 and
// the τ pre-computation of §4.4: given a degree distribution, it reports
// the bytes HEP's data structures occupy for any threshold factor τ, and
// picks the largest τ (best replication factor) that fits a memory budget.
package memmodel

import (
	"sort"

	"hep/internal/graph"
	"hep/internal/pstate"
)

// BytesPerID is b_id: vertex ids are 32-bit for graphs under 2^32 vertices
// (paper §4.2).
const BytesPerID = 4

// Footprint itemizes the §4.2 model for one τ.
type Footprint struct {
	Tau float64
	// ColumnArray is Σ_{v ∈ V_l} d(v) · b_id — the dominant structure.
	ColumnArray int64
	// IndexArrays is 2·|V|·b_id (separate in/out index arrays).
	IndexArrays int64
	// SizeFields is 2·|V|·b_id (valid-entry counts per in/out list).
	SizeFields int64
	// ReplicaTable is the vertex-major replica table: 8·|V|·⌈k/64⌉ mask
	// bytes plus 8·k of per-partition counts (pstate.TableBytes), exactly
	// the bytes pstate.NewTable allocates.
	ReplicaTable int64
	// VertexState is |V| bytes: NE++'s one state byte per vertex, which
	// holds the high-degree bit, the core set C and the two secondary-set
	// bits for S_i and the pre-seeded S_{i+1}.
	VertexState int64
	// Heap is 2·|V|·b_id (min-heap + position lookup).
	Heap int64
}

// Total returns the §4.2 sum:
// Σ_{v∈V_l} d(v)·b_id + 6·|V|·b_id + 8·|V|·⌈k/64⌉ + 8·k + |V| bytes.
func (f Footprint) Total() int64 {
	return f.ColumnArray + f.IndexArrays + f.SizeFields + f.ReplicaTable + f.VertexState + f.Heap
}

// Estimate evaluates the model for one τ given the degree array and k. The
// column-array size is exact: it is the degree sum of the low-degree
// vertices, which the CSR build stores.
func Estimate(deg []int32, m int64, k int, tau float64) Footprint {
	n := len(deg)
	mean := graph.MeanDegree(n, m)
	f := Footprint{Tau: tau}
	var colEntries int64
	for _, d := range deg {
		if !graph.HighDegree(d, tau, mean) {
			colEntries += int64(d)
		}
	}
	f.ColumnArray = colEntries * BytesPerID
	f.IndexArrays = 2 * int64(n) * BytesPerID
	f.SizeFields = 2 * int64(n) * BytesPerID
	f.ReplicaTable = pstate.TableBytes(n, k)
	f.VertexState = int64(n)
	f.Heap = 2 * int64(n) * BytesPerID
	return f
}

// TauSweep evaluates the footprint of every candidate τ from one degree
// pass over src — the pre-computation step of §4.4 whose run-time Table 2
// reports. The footprints come back sorted by descending τ.
func TauSweep(src graph.EdgeStream, k int, taus []float64) ([]Footprint, error) {
	deg, m, err := graph.Degrees(src)
	if err != nil {
		return nil, err
	}
	sorted := append([]float64(nil), taus...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	points := make([]Footprint, len(sorted))
	for i, tau := range sorted {
		points[i] = Estimate(deg, m, k, tau)
	}
	return points, nil
}

// ChooseTau returns the largest candidate τ whose §4.2 footprint fits
// budgetBytes, and whether any candidate fits. Larger τ means more edges
// handled in memory and a better replication factor (§4.3), so the maximum
// feasible τ is optimal.
func ChooseTau(src graph.EdgeStream, k int, taus []float64, budgetBytes int64) (float64, bool, error) {
	points, err := TauSweep(src, k, taus)
	if err != nil {
		return 0, false, err
	}
	for _, f := range points { // sorted descending
		if f.Total() <= budgetBytes {
			return f.Tau, true, nil
		}
	}
	return 0, false, nil
}
