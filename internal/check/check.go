// Package check is the hepcheck invariant shim: runtime assertions for the
// partitioning core that compile out of release builds entirely.
//
// Build without tags and Enabled is the untyped constant false — every
// `if check.Enabled { ... }` assertion block is dead code the compiler
// deletes, so the hot paths carry zero cost (the hotalloc analyzer skips
// these blocks for the same reason). Build with `-tags=hepcheck` and the
// blocks compile in, turning invariant violations into immediate panics at
// the point of corruption instead of downstream misbehavior:
//
//	if check.Enabled {
//		check.Assertf(placed > 0, "region into partition %d placed no edge", p)
//	}
//
// The invariants wired through this shim: every Buffered expansion region
// places at least one edge, and a consumer of shard.Lend's copy slab
// releases it before the next fill. CI runs `go test -tags=hepcheck` (with
// -race on the shard and ooc packages) so every assertion executes on
// every merge.
package check
