package dne

import (
	"sync"
	"testing"
)

// TestClaimsStorm hammers one claim array from many goroutines, every worker
// trying to claim every edge — the adversarial form of the concurrent
// expanders' access pattern. Exactly one worker must win each edge, the
// winner recorded by TryClaim must be the owner every reader sees, and the
// per-worker win counts must sum to the edge count (no edge double-claimed,
// none dropped).
func TestClaimsStorm(t *testing.T) {
	const m = 1 << 14
	const workers = 8
	cl := NewClaims(m)
	wins := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for e := 0; e < m; e++ {
				if cl.TryClaim(e, int32(w)) {
					wins[w]++
				}
			}
		}(w)
	}
	wg.Wait()

	total := 0
	for _, n := range wins {
		total += n
	}
	if total != m {
		t.Fatalf("claim storm: %d wins over %d edges", total, m)
	}
	for e := 0; e < m; e++ {
		own := cl.Owner(e)
		if own < 0 || own >= workers {
			t.Fatalf("edge %d: owner %d out of range", e, own)
		}
		if !cl.Claimed(e) {
			t.Fatalf("edge %d: unclaimed after storm", e)
		}
		if cl.TryClaim(e, 99) {
			t.Fatalf("edge %d: reclaimed after storm", e)
		}
	}
}

// TestClaimsResetReuse pins the sweep path: Assign overwrites an edge's
// owner unconditionally, claimed or not, and Owner reads it back.
func TestClaimsResetReuse(t *testing.T) {
	cl := NewClaims(8)
	for e := 0; e < 8; e++ {
		if !cl.TryClaim(e, int32(e)) {
			t.Fatalf("fresh claim %d failed", e)
		}
	}
	cl.Assign(7, 3)
	if cl.Owner(7) != 3 {
		t.Fatalf("Assign/Owner on a claimed edge: got %d", cl.Owner(7))
	}
	cl = NewClaims(32)
	cl.Assign(31, 7)
	if cl.Owner(31) != 7 {
		t.Fatalf("Assign/Owner: got %d", cl.Owner(31))
	}
}
