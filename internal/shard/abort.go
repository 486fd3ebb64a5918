package shard

import (
	"errors"
	"sync/atomic"

	"hep/internal/graph"
)

// AbortStream wraps a stream so a placer that hit a validation error —
// HDRF's partial-degree pass on an out-of-range id — can stop the scan
// early: once Stop is set, Edges yields no further edges instead of
// scanning the rest of a possibly multi-gigabyte stream, and the recorded
// error surfaces, matching the prompt-failure behavior of the counting
// passes (whose yield returns false at the first bad edge).
type AbortStream struct {
	graph.EdgeStream
	Stop *atomic.Bool
}

// Edges implements graph.EdgeStream.
func (s AbortStream) Edges(yield func(u, v graph.V) bool) error {
	return s.EdgeStream.Edges(func(u, v graph.V) bool {
		return !s.Stop.Load() && yield(u, v)
	})
}

// Chunks implements graph.ChunkStream by delegation when the wrapped stream
// lends chunks; the abort flag is checked at slab boundaries (the rest of
// the slab in hand at worst). A slab refused because of the abort is
// released immediately.
func (s AbortStream) Chunks(yield func(edges []graph.Edge, release func()) bool) error {
	cs, ok := graph.AsChunks(s.EdgeStream)
	if !ok {
		return errors.New("shard: wrapped stream does not lend chunks")
	}
	return cs.Chunks(func(edges []graph.Edge, release func()) bool {
		if s.Stop.Load() {
			release()
			return false
		}
		//hep:xfer forwarded to the wrapped consumer, which inherits the release obligation
		return yield(edges, release)
	})
}

// LendsChunks is the graph.AsChunks conditional-lending hook: an AbortStream
// only lends when the stream it wraps does.
func (s AbortStream) LendsChunks() bool {
	_, ok := graph.AsChunks(s.EdgeStream)
	return ok
}
