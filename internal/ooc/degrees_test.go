package ooc

import (
	"testing"

	"hep/internal/gen"
	"hep/internal/shard"
)

// TestDegreePassParallelDiscoversFromFile runs the benchmark's stand-in for
// Buffered's discovery scan over a chunked on-disk stream opened without
// vertex discovery (n = -1, NumVertices() == 0, the count-less shape): it
// must return the file's edge count and no degree array.
func TestDegreePassParallelDiscoversFromFile(t *testing.T) {
	g := gen.CommunityPowerLaw(2000, 25, 6, 0.2, 77)
	src, err := Open(writeGraphFile(t, g), -1, 512)
	if err != nil {
		t.Fatal(err)
	}
	if src.NumVertices() != 0 {
		t.Fatalf("NumVertices = %d, want 0 with discovery skipped", src.NumVertices())
	}
	deg, m, err := DegreePassParallel(src, shard.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m != g.NumEdges() || deg != nil {
		t.Fatalf("m = %d, len(deg) = %d; want %d, no degree array", m, len(deg), g.NumEdges())
	}
}
