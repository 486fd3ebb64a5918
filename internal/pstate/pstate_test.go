package pstate

import (
	"math/bits"
	"math/rand"
	"testing"

	"hep/internal/graph"
)

func TestTableDenseSmallK(t *testing.T) {
	tab := NewTable(100, 32)
	if tab.Words() != 1 {
		t.Fatalf("words = %d", tab.Words())
	}
	if !tab.Add(5, 3) {
		t.Fatal("first Add not new")
	}
	if tab.Add(5, 3) {
		t.Fatal("second Add reported new")
	}
	tab.Add(5, 31)
	tab.Add(7, 3)
	if !tab.Has(5, 3) || !tab.Has(5, 31) || !tab.Has(7, 3) {
		t.Fatal("Has lost a set bit")
	}
	if tab.Has(5, 4) || tab.Has(6, 3) {
		t.Fatal("Has invented a bit")
	}
	if tab.Count(5) != 2 || tab.Count(7) != 1 || tab.Count(0) != 0 {
		t.Fatal("Count wrong")
	}
	vc := tab.VertexCounts()
	if vc[3] != 2 || vc[31] != 1 || vc[0] != 0 {
		t.Fatalf("vertex counts %v", vc)
	}
	var got []int
	tab.RangeVertex(5, func(p int) bool { got = append(got, p); return true })
	if len(got) != 2 || got[0] != 3 || got[1] != 31 {
		t.Fatalf("RangeVertex = %v", got)
	}
}

func TestTableOverflowPaged(t *testing.T) {
	n, k := 3*PageVertices/2, 200
	tab := NewTable(n, k)
	if tab.Words() != 4 {
		t.Fatalf("words = %d", tab.Words())
	}
	if tab.PagesAllocated() != 0 {
		t.Fatal("pages allocated up front")
	}
	base := tab.Bytes()

	tab.Add(0, 63)
	if tab.PagesAllocated() != 0 {
		t.Fatal("dense write allocated a page")
	}
	tab.Add(0, 64)
	tab.Add(0, 199)
	if tab.PagesAllocated() != 1 {
		t.Fatalf("pages = %d, want 1", tab.PagesAllocated())
	}
	if tab.Bytes() <= base {
		t.Fatal("Bytes did not grow with the page")
	}
	v := graph.V(PageVertices + 7) // second page, short tail range
	tab.Add(v, 130)
	if tab.PagesAllocated() != 2 {
		t.Fatalf("pages = %d, want 2", tab.PagesAllocated())
	}
	for _, p := range []int{63, 64, 199} {
		if !tab.Has(0, p) {
			t.Fatalf("lost bit %d", p)
		}
	}
	if !tab.Has(v, 130) || tab.Has(v, 131) || tab.Has(1, 64) {
		t.Fatal("overflow Has wrong")
	}
	if tab.Count(0) != 3 || tab.Count(v) != 1 {
		t.Fatal("overflow Count wrong")
	}
	var got []int
	tab.RangeVertex(0, func(p int) bool { got = append(got, p); return true })
	if len(got) != 3 || got[0] != 63 || got[1] != 64 || got[2] != 199 {
		t.Fatalf("RangeVertex = %v", got)
	}
	total, covered := tab.TotalAndCovered()
	if total != 4 || covered != 2 {
		t.Fatalf("total=%d covered=%d", total, covered)
	}
}

// TestTableWords reads the partitions hosting either endpoint from the two
// vertices' mask words, across the dense word and an overflow page.
func TestTableWords(t *testing.T) {
	tab := NewTable(50, 130)
	tab.Add(1, 0)
	tab.Add(1, 70)
	tab.Add(2, 5)
	tab.Add(2, 129)
	var got []int
	for wi := range tab.Words() {
		for w := tab.Word(1, wi) | tab.Word(2, wi); w != 0; w &= w - 1 {
			got = append(got, wi<<6+bits.TrailingZeros64(w))
		}
	}
	want := []int{0, 5, 70, 129}
	if len(got) != len(want) {
		t.Fatalf("partitions = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("partitions = %v, want %v", got, want)
		}
	}
	// A vertex with no overflow page reads zero there.
	if tab.Word(3, 1) != 0 || tab.Word(1, 1)>>6&1 != 1 { // partition 70
		t.Fatal("overflow word misread")
	}
}

// TestTableMatchesReference drives random Add/Has against a map reference
// across the dense and paged regimes.
func TestTableMatchesReference(t *testing.T) {
	for _, k := range []int{1, 17, 64, 65, 256} {
		rng := rand.New(rand.NewSource(int64(k)))
		n := PageVertices + 100
		tab := NewTable(n, k)
		ref := map[[2]int]bool{}
		for i := 0; i < 5000; i++ {
			v, p := rng.Intn(n), rng.Intn(k)
			if tab.Add(graph.V(v), p) == ref[[2]int{v, p}] {
				t.Fatalf("k=%d: Add(%d,%d) newness mismatch", k, v, p)
			}
			ref[[2]int{v, p}] = true
		}
		for i := 0; i < 5000; i++ {
			v, p := rng.Intn(n), rng.Intn(k)
			if tab.Has(graph.V(v), p) != ref[[2]int{v, p}] {
				t.Fatalf("k=%d: Has(%d,%d) mismatch", k, v, p)
			}
		}
		var total int64
		covered := map[int]bool{}
		vcount := make([]int64, k)
		for vp := range ref {
			total++
			covered[vp[0]] = true
			vcount[vp[1]]++
		}
		gotTotal, gotCovered := tab.TotalAndCovered()
		if gotTotal != total || gotCovered != len(covered) {
			t.Fatalf("k=%d: total/covered = %d/%d, want %d/%d", k, gotTotal, gotCovered, total, len(covered))
		}
		for p := 0; p < k; p++ {
			if tab.VertexCount(p) != vcount[p] {
				t.Fatalf("k=%d: vcount[%d] = %d, want %d", k, p, tab.VertexCount(p), vcount[p])
			}
		}
	}
}

// TestLoadsMatchesScan drives random increments and checks max/min/argmin
// against full scans after every step.
func TestLoadsMatchesScan(t *testing.T) {
	for _, k := range []int{1, 2, 7, 64, 129} {
		rng := rand.New(rand.NewSource(int64(k)))
		l := NewLoads(k)
		for i := 0; i < 20000; i++ {
			// Bias toward the argmin partition, the hot case in practice.
			p := rng.Intn(k)
			if rng.Intn(3) == 0 {
				p = l.ArgMin()
			}
			l.Inc(p)
			max, min := l.counts[0], l.counts[0]
			argmin := 0
			for q, c := range l.counts {
				if c > max {
					max = c
				}
				if c < min {
					min, argmin = c, q
				}
			}
			if l.Max() != max || l.Min() != min || l.ArgMin() != argmin {
				t.Fatalf("k=%d step %d: got (%d,%d,%d), want (%d,%d,%d)",
					k, i, l.Max(), l.Min(), l.ArgMin(), max, min, argmin)
			}
		}
	}
}

func TestLoadsBulk(t *testing.T) {
	l := NewLoads(4)
	l.Bulk(2, 100)
	l.Bulk(0, 7)
	if l.Max() != 100 || l.Min() != 0 || l.ArgMin() != 1 {
		t.Fatalf("after Bulk: max=%d min=%d argmin=%d", l.Max(), l.Min(), l.ArgMin())
	}
	l.Inc(1)
	l.Inc(3)
	if l.Min() != 1 || l.ArgMin() != 1 {
		t.Fatalf("min advance: min=%d argmin=%d", l.Min(), l.ArgMin())
	}
}

// TestLoadsBulkMatchesRecompute drives random bulk updates (growing and,
// occasionally, shrinking) and checks the O(changed)-path bookkeeping stays
// bit-identical to a from-scratch recompute.
func TestLoadsBulkMatchesRecompute(t *testing.T) {
	for _, k := range []int{1, 3, 64, 130} {
		rng := rand.New(rand.NewSource(int64(100 + k)))
		l := NewLoads(k)
		ref := make([]int64, k)
		for i := 0; i < 5000; i++ {
			p := rng.Intn(k)
			if rng.Intn(4) == 0 {
				p = l.ArgMin() // stress the at-minimum bookkeeping
			}
			d := int64(rng.Intn(5))
			if rng.Intn(20) == 0 {
				d = -int64(rng.Intn(3)) // shrink: recompute fallback path
				if ref[p]+d < 0 {
					d = -ref[p]
				}
			}
			l.Bulk(p, d)
			ref[p] += d
			max, min, argmin := ref[0], ref[0], 0
			for q, c := range ref {
				if c > max {
					max = c
				}
				if c < min {
					min, argmin = c, q
				}
			}
			if l.Max() != max || l.Min() != min || l.ArgMin() != argmin {
				t.Fatalf("k=%d step %d: got (%d,%d,%d), want (%d,%d,%d)",
					k, i, l.Max(), l.Min(), l.ArgMin(), max, min, argmin)
			}
		}
	}
}

// TestRunningCoveredMatchesScan pins the incremental Covered/TotalReplicas
// counters against the exact TotalAndCovered scan, across the dense-only and
// paged-overflow layouts.
func TestRunningCoveredMatchesScan(t *testing.T) {
	for _, k := range []int{3, 64, 200} {
		rng := rand.New(rand.NewSource(int64(500 + k)))
		tab := NewTable(600, k)
		check := func(at string) {
			total, covered := tab.TotalAndCovered()
			if tab.Covered() != int64(covered) {
				t.Fatalf("k=%d %s: running covered = %d, scan says %d", k, at, tab.Covered(), covered)
			}
			if tab.TotalReplicas() != total {
				t.Fatalf("k=%d %s: running total = %d, scan says %d", k, at, tab.TotalReplicas(), total)
			}
		}
		check("empty")
		for i := 0; i < 4000; i++ {
			tab.Add(graph.V(rng.Intn(600)), rng.Intn(k))
			if i%997 == 0 {
				check("mid")
			}
		}
		check("end")
	}
}

// TestTableRemove pins Remove as Add's inverse: the bit clears, the
// per-partition and covered counts drop only on a real clear, removing a
// vertex's last bit uncovers it, and absent bits — including bits on an
// unallocated overflow page — are no-ops that allocate nothing.
func TestTableRemove(t *testing.T) {
	n, k := 2*PageVertices, 130
	tab := NewTable(n, k)
	tab.Add(3, 5)
	tab.Add(3, 70)
	tab.Add(4, 5)
	if !tab.Remove(3, 5) {
		t.Fatal("Remove of a set bit reported absent")
	}
	if tab.Has(3, 5) || !tab.Has(3, 70) || !tab.Has(4, 5) {
		t.Fatal("Remove cleared the wrong bits")
	}
	if tab.VertexCount(5) != 1 || tab.Covered() != 2 {
		t.Fatalf("after clear: vcount[5]=%d covered=%d, want 1, 2", tab.VertexCount(5), tab.Covered())
	}
	if tab.Remove(3, 5) {
		t.Fatal("second Remove reported a clear")
	}
	if tab.VertexCount(5) != 1 || tab.Covered() != 2 {
		t.Fatal("Remove of an absent bit changed a count")
	}
	if !tab.Remove(3, 70) || tab.VertexCount(70) != 0 || tab.Covered() != 1 {
		t.Fatalf("last bit: vcount[70]=%d covered=%d, want 0, 1", tab.VertexCount(70), tab.Covered())
	}
	if tab.Count(3) != 0 {
		t.Fatal("vertex 3 still replicated after its last Remove")
	}

	// Vertex PageVertices+1 lives on the second overflow page, never written.
	v := graph.V(PageVertices + 1)
	pages := tab.PagesAllocated()
	if tab.Remove(v, 100) || tab.Remove(v, 0) {
		t.Fatal("Remove on an untouched vertex reported a clear")
	}
	if tab.PagesAllocated() != pages {
		t.Fatal("Remove allocated an overflow page")
	}
	if tab.Covered() != 1 || tab.TotalReplicas() != 1 {
		t.Fatalf("no-op Removes moved covered/total to %d/%d", tab.Covered(), tab.TotalReplicas())
	}

	// Add then Remove round-trips in the dense word and on an overflow page.
	for _, p := range []int{0, 63, 64, 129} {
		before := append([]uint64(nil), tab.Word(v, 0), tab.Word(v, 1), tab.Word(v, 2))
		tab.Add(v, p)
		if !tab.Remove(v, p) {
			t.Fatalf("p=%d: Remove after Add reported absent", p)
		}
		for wi, w := range before {
			if tab.Word(v, wi) != w {
				t.Fatalf("p=%d: word %d = %#x after round trip, want %#x", p, wi, tab.Word(v, wi), w)
			}
		}
		if tab.VertexCount(p) != 0 || tab.Covered() != 1 || tab.TotalReplicas() != 1 {
			t.Fatalf("p=%d: round trip left vcount=%d covered=%d total=%d", p, tab.VertexCount(p), tab.Covered(), tab.TotalReplicas())
		}
	}
}

// TestRemoveMatchesReference drives random Add/Remove against a map reference
// and pins the running counts against the exact scan throughout.
func TestRemoveMatchesReference(t *testing.T) {
	for _, k := range []int{3, 64, 200} {
		rng := rand.New(rand.NewSource(int64(900 + k)))
		n := PageVertices + 50
		tab := NewTable(n, k)
		ref := map[[2]int]bool{}
		for i := 0; i < 6000; i++ {
			v, p := rng.Intn(n), rng.Intn(k)
			key := [2]int{v, p}
			if rng.Intn(3) == 0 {
				if tab.Remove(graph.V(v), p) != ref[key] {
					t.Fatalf("k=%d: Remove(%d,%d) clear mismatch", k, v, p)
				}
				delete(ref, key)
			} else {
				if tab.Add(graph.V(v), p) == ref[key] {
					t.Fatalf("k=%d: Add(%d,%d) newness mismatch", k, v, p)
				}
				ref[key] = true
			}
		}
		total, covered := tab.TotalAndCovered()
		if total != int64(len(ref)) || tab.TotalReplicas() != total {
			t.Fatalf("k=%d: total %d (running %d), reference %d", k, total, tab.TotalReplicas(), len(ref))
		}
		if tab.Covered() != int64(covered) {
			t.Fatalf("k=%d: running covered %d, scan says %d", k, tab.Covered(), covered)
		}
		vcount := make([]int64, k)
		for key := range ref {
			vcount[key[1]]++
		}
		for p := 0; p < k; p++ {
			if tab.VertexCount(p) != vcount[p] {
				t.Fatalf("k=%d: vcount[%d] = %d, want %d", k, p, tab.VertexCount(p), vcount[p])
			}
		}
	}
}

func TestMaxTableBytes(t *testing.T) {
	if got := MaxTableBytes(1000, 32); got != 1000*8+32*8 {
		t.Fatalf("k=32: %d", got)
	}
	if got := MaxTableBytes(1000, 256); got != 1000*8*4+256*8 {
		t.Fatalf("k=256: %d", got)
	}
}
