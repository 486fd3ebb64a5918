package dne

import "sync/atomic"

// Claims is the shared edge-claim array of the DNE discipline: one atomic
// int32 per edge, 0 = unclaimed, owner+1 = claimed. Concurrent expanders
// race for edges with a single compare-and-swap per claim, so exactly one
// claimant wins each edge — the exactly-once invariant DNE's concurrent
// expanders build on. All methods are safe for concurrent use.
type Claims struct {
	c []atomic.Int32
}

// NewClaims returns a claim array for m edges, all unclaimed.
func NewClaims(m int) *Claims {
	return &Claims{c: make([]atomic.Int32, m)}
}

// Len returns the number of edges covered.
func (cl *Claims) Len() int { return len(cl.c) }

// TryClaim claims edge e for owner with one CAS, reporting whether this
// caller won the edge. owner must be ≥ 0.
//
//hep:noalloc
func (cl *Claims) TryClaim(e int, owner int32) bool {
	return cl.c[e].CompareAndSwap(0, owner+1)
}

// Owner returns the owner of edge e, or -1 when it is unclaimed.
//
//hep:noalloc
func (cl *Claims) Owner(e int) int32 { return cl.c[e].Load() - 1 }

// Claimed reports whether edge e has been claimed.
//
//hep:noalloc
func (cl *Claims) Claimed(e int) bool { return cl.c[e].Load() != 0 }

// Assign stores owner for edge e unconditionally — the single-threaded
// sweep path (leftover edges after the expanders stop). It must not race
// with TryClaim on the same edge.
//
//hep:noalloc
func (cl *Claims) Assign(e int, owner int32) { cl.c[e].Store(owner + 1) }
