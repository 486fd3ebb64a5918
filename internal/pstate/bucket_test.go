package pstate

import (
	"math/rand"
	"testing"

	"hep/internal/graph"
)

// naiveBuckets recomputes the index with one Has probe per (vertex,
// partition) pair — the retired k-probe discipline, kept as the oracle. It
// replays the pool admission with Count: vertices are admitted in input
// order while their replica counts fit poolCap, and the rest overflow.
func naiveBuckets(t *Table, verts []graph.V, k, poolCap int) (buckets [][]int32, overflow []int32) {
	admitted := make([]bool, len(verts))
	tot := 0
	for i, v := range verts {
		c := t.Count(v)
		if c == 0 {
			continue
		}
		if tot+c > poolCap {
			overflow = append(overflow, int32(i))
			continue
		}
		tot += c
		admitted[i] = true
	}
	buckets = make([][]int32, k)
	for p := 0; p < k; p++ {
		for i, v := range verts {
			if admitted[i] && t.Has(v, p) {
				buckets[p] = append(buckets[p], int32(i))
			}
		}
	}
	return buckets, overflow
}

// checkAgainstOracle compares b, just built over verts, with naiveBuckets.
func checkAgainstOracle(t *testing.T, b *Buckets, tab *Table, verts []graph.V, k, poolCap int) {
	t.Helper()
	want, wantOv := naiveBuckets(tab, verts, k, poolCap)
	if ov := b.Overflow(); !equalTags(ov, wantOv) {
		t.Fatalf("k=%d pool=%d: overflow %v, oracle %v", k, poolCap, ov, wantOv)
	}
	for p := 0; p < k; p++ {
		if got := b.Bucket(p); !equalTags(got, want[p]) {
			t.Fatalf("k=%d pool=%d p=%d: bucket %v, oracle %v", k, poolCap, p, got, want[p])
		}
	}
}

func equalTags(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBucketsMatchProbeOracle pins Build against the probe oracle across k
// on both sides of every mask-word boundary (one mask word and several),
// with an ample pool and with a pool of half the replicas, where later
// vertices spill to the overflow list.
func TestBucketsMatchProbeOracle(t *testing.T) {
	for _, k := range []int{1, 8, 63, 64, 65, 128, 200} {
		rng := rand.New(rand.NewSource(int64(k)))
		const n = 500
		tab := NewTable(n, k)
		for v := 0; v < n; v++ {
			for r := 0; r < rng.Intn(5); r++ {
				tab.Add(graph.V(v), rng.Intn(k))
			}
		}
		verts := make([]graph.V, 0, 256)
		replicas := 0
		for v := 0; v < n; v += 2 {
			verts = append(verts, graph.V(v))
			replicas += tab.Count(graph.V(v))
		}
		for _, poolCap := range []int{len(verts) * k, replicas / 2} {
			b := NewBuckets(k, poolCap, len(verts))
			b.Build(tab, verts)
			if spill := len(b.Overflow()) > 0; spill != (poolCap < replicas) {
				t.Fatalf("k=%d pool=%d of %d replicas: overflow %v", k, poolCap, replicas, b.Overflow())
			}
			checkAgainstOracle(t, b, tab, verts, k, poolCap)
		}
	}
}

// TestBucketsOverflowSpill pins the bounded-pool contract: vertices admitted
// in input order while their replica sets fit, the rest spilled to the
// overflow list deterministically, and bucket-plus-overflow together still
// covering exactly the oracle, first on a hand-checked case at k = 4, then
// across k.
func TestBucketsOverflowSpill(t *testing.T) {
	const k = 4
	tab := NewTable(6, k)
	// Replica counts per vertex: 2, 2, 2, 1, 3, 1 — a pool of 5 admits
	// vertices 0, 1 (total 4), spills 2 (would reach 6), admits 3 (total 5),
	// spills 4, and 5 no longer fits nothing… vertex 5 has count 1, total
	// would reach 6 > 5, so it spills too.
	for v, ps := range [][]int{{0, 1}, {1, 2}, {0, 3}, {2}, {0, 1, 2}, {3}} {
		for _, p := range ps {
			tab.Add(graph.V(v), p)
		}
	}
	verts := []graph.V{0, 1, 2, 3, 4, 5}
	b := NewBuckets(k, 5, len(verts))
	b.Build(tab, verts)

	wantOv := []int32{2, 4, 5}
	if ov := b.Overflow(); !equalTags(ov, wantOv) {
		t.Fatalf("overflow %v, want %v", ov, wantOv)
	}
	// Admitted buckets: p0 ← {0}, p1 ← {0,1}, p2 ← {1,3}, p3 ← {}.
	check := func(p int, want ...int32) {
		if got := b.Bucket(p); !equalTags(got, want) {
			t.Fatalf("bucket %d = %v, want %v", p, got, want)
		}
	}
	check(0, 0)
	check(1, 0, 1)
	check(2, 1, 3)
	check(3)

	// Rebuild discards the previous index (idempotent reuse).
	b.Build(tab, verts[:2])
	if len(b.Overflow()) != 0 {
		t.Fatalf("rebuild overflow %v", b.Overflow())
	}
	check(0, 0)
	check(1, 0, 1)
	check(2, 1)
	check(3)

	// The same contract at k on both sides of the mask-word boundaries:
	// replica sets span the first and the later words, admitted and spilled
	// vertices interleave, and each index is rebuilt over a shorter slice.
	for _, k := range []int{1, 63, 64, 65, 128} {
		const n = 300
		tab := NewTable(n, k)
		for v := 0; v < n; v++ {
			for j := 0; j < v%5; j++ {
				tab.Add(graph.V(v), (v*7+j*61)%k)
			}
		}
		verts := make([]graph.V, n)
		replicas := 0
		for v := range verts {
			verts[v] = graph.V(v)
			replicas += tab.Count(graph.V(v))
		}
		for _, poolCap := range []int{replicas, replicas / 2, replicas / 7, 1, 0} {
			b := NewBuckets(k, poolCap, n)
			for _, m := range []int{n, n / 3} {
				b.Build(tab, verts[:m])
				checkAgainstOracle(t, b, tab, verts[:m], k, poolCap)
			}
		}
	}
}

// TestBucketsBytesStable pins that Build never allocates past the caps the
// constructor charged.
func TestBucketsBytesStable(t *testing.T) {
	tab := NewTable(100, 8)
	for v := 0; v < 100; v++ {
		tab.Add(graph.V(v), v%8)
	}
	verts := make([]graph.V, 100)
	for v := range verts {
		verts[v] = graph.V(v)
	}
	b := NewBuckets(8, 40, 100)
	before := b.Bytes()
	for i := 0; i < 3; i++ {
		b.Build(tab, verts)
	}
	if by := b.Bytes(); by != before {
		t.Fatalf("Bytes drifted %d → %d across builds", before, by)
	}
}

// TestBucketsOverflowExhaustionPanics pins the fail-loud contract: a vertex
// that fits neither the pool nor the overflow list is a caller sizing bug,
// never a silent drop from the index.
func TestBucketsOverflowExhaustionPanics(t *testing.T) {
	tab := NewTable(3, 2)
	for v := 0; v < 3; v++ {
		tab.Add(graph.V(v), 0)
		tab.Add(graph.V(v), 1)
	}
	b := NewBuckets(2, 2, 0) // pool admits one vertex, no overflow room
	defer func() {
		if recover() == nil {
			t.Fatal("Build silently dropped a vertex instead of panicking")
		}
	}()
	b.Build(tab, []graph.V{0, 1, 2})
}
