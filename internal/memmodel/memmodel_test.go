package memmodel

import (
	"math"
	"testing"

	"hep/internal/core"
	"hep/internal/gen"
	"hep/internal/graph"
	"hep/internal/pstate"
)

func TestEstimateComponents(t *testing.T) {
	// 4 vertices, 3 edges path: degrees 1,2,2,1, mean 1.5.
	deg := []int32{1, 2, 2, 1}
	f := Estimate(deg, 3, 4, math.Inf(1))
	if f.ColumnArray != 6*BytesPerID {
		t.Fatalf("column = %d", f.ColumnArray)
	}
	if f.IndexArrays != 2*4*BytesPerID || f.SizeFields != 2*4*BytesPerID || f.Heap != 2*4*BytesPerID {
		t.Fatal("fixed components wrong")
	}
	if f.ReplicaTable != pstate.TableBytes(4, 4) {
		t.Fatalf("replica table = %d", f.ReplicaTable)
	}
	if f.VertexState != 4 {
		t.Fatalf("vertex state = %d", f.VertexState)
	}
	want := f.ColumnArray + f.IndexArrays + f.SizeFields + f.ReplicaTable + f.VertexState + f.Heap
	if f.Total() != want {
		t.Fatal("total mismatch")
	}
}

// TestReplicaTableScalesWithMaskWords pins the k-dependence of the new
// accounting: one mask word per vertex up to k=64, one extra word per
// additional 64 partitions.
func TestReplicaTableScalesWithMaskWords(t *testing.T) {
	deg := []int32{1, 2, 2, 1}
	f32 := Estimate(deg, 3, 32, math.Inf(1))
	f64 := Estimate(deg, 3, 64, math.Inf(1))
	f256 := Estimate(deg, 3, 256, math.Inf(1))
	if f32.ReplicaTable-32*8 != f64.ReplicaTable-64*8 {
		t.Fatalf("k=32 and k=64 mask bytes differ: %d vs %d", f32.ReplicaTable, f64.ReplicaTable)
	}
	if f256.ReplicaTable-256*8 != 4*(f64.ReplicaTable-64*8) {
		t.Fatalf("k=256 mask bytes %d not 4x the k=64 word", f256.ReplicaTable)
	}
}

// TestReplicaTableMatchesHEPRun pins the model's replica-table charge to the
// bytes the table of a real HEP run holds, for k within one mask word and
// past it.
func TestReplicaTableMatchesHEPRun(t *testing.T) {
	g := gen.MustDataset("TW").Build(0.1)
	deg, m, err := graph.Degrees(g)
	if err != nil {
		t.Fatal(err)
	}
	const tau = 10
	for _, k := range []int{32, 128, 256} {
		res, err := (&core.HEP{Tau: tau}).Partition(g, k)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := Estimate(deg, m, k, tau).ReplicaTable, res.Reps.Bytes(); got != want {
			t.Fatalf("k=%d: model charges %d B, the run's table holds %d B", k, got, want)
		}
	}
}

func TestEstimatePruningShrinksColumn(t *testing.T) {
	g := gen.BarabasiAlbert(2000, 6, 1)
	deg, m, err := graph.Degrees(g)
	if err != nil {
		t.Fatal(err)
	}
	full := Estimate(deg, m, 32, math.Inf(1))
	pruned := Estimate(deg, m, 32, 1)
	if pruned.ColumnArray >= full.ColumnArray {
		t.Fatalf("pruned column %d not below full %d", pruned.ColumnArray, full.ColumnArray)
	}
}

func TestTauSweepExactMatchesCSR(t *testing.T) {
	g := gen.BarabasiAlbert(1500, 5, 2)
	taus := []float64{100, 10, 2, 1}
	points, err := TauSweep(g, 16, taus)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(taus) {
		t.Fatalf("points = %d", len(points))
	}
	// Descending τ order.
	for i := 1; i < len(points); i++ {
		if points[i].Tau > points[i-1].Tau {
			t.Fatal("sweep not sorted descending")
		}
		// Lower τ ⇒ more pruning ⇒ smaller column.
		if points[i].ColumnArray > points[i-1].ColumnArray {
			t.Fatal("column entries not monotone")
		}
	}
	// Cross-check each point against a real CSR build.
	for _, p := range points {
		csr, err := graph.BuildCSR(g, p.Tau, nil)
		if err != nil {
			t.Fatal(err)
		}
		if csr.ColLen()*BytesPerID != p.ColumnArray {
			t.Errorf("tau=%v: sweep column %d B, CSR %d entries", p.Tau, p.ColumnArray, csr.ColLen())
		}
	}
}

func TestChooseTau(t *testing.T) {
	g := gen.BarabasiAlbert(2000, 8, 3)
	taus := []float64{100, 10, 4, 1}
	// A huge budget must pick the largest τ.
	tau, ok, err := ChooseTau(g, 32, taus, 1<<40)
	if err != nil || !ok || tau != 100 {
		t.Fatalf("huge budget: tau=%v ok=%v err=%v", tau, ok, err)
	}
	// A tiny budget must fail.
	_, ok, err = ChooseTau(g, 32, taus, 10)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("10-byte budget satisfied")
	}
	// A budget between the τ=1 and τ=100 footprints must pick some
	// intermediate τ, and the chosen footprint must actually fit.
	points, err := TauSweep(g, 32, taus)
	if err != nil {
		t.Fatal(err)
	}
	low := points[len(points)-1] // smallest τ = smallest footprint
	tau, ok, err = ChooseTau(g, 32, taus, low.Total()+1)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("budget %d should admit tau=1", low.Total()+1)
	}
	if tau > 100 {
		t.Fatalf("chose tau=%v", tau)
	}
}

// TestChooseTauReadsStreamOnce pins the §4.4 fit to one degree pass: every
// candidate's footprint comes from the degree array, so the edge list is
// read once however many candidates there are.
func TestChooseTauReadsStreamOnce(t *testing.T) {
	src := &passCounter{EdgeStream: gen.BarabasiAlbert(2000, 8, 3)}
	if _, _, err := ChooseTau(src, 32, []float64{100, 50, 20, 10, 5, 2, 1}, 1<<20); err != nil {
		t.Fatal(err)
	}
	if src.passes != 1 {
		t.Fatalf("ChooseTau read the stream %d times, want 1", src.passes)
	}
}

// passCounter counts the passes made over the stream it wraps. It does not
// lend chunks, so every reader goes through Edges.
type passCounter struct {
	graph.EdgeStream
	passes int
}

func (s *passCounter) Edges(yield func(u, v graph.V) bool) error {
	s.passes++
	return s.EdgeStream.Edges(yield)
}
