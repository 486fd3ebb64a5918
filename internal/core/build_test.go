package core

import (
	"errors"
	"testing"

	"hep/internal/graph"
	"hep/internal/shard"
)

// BuildCSRSharded is kept as a forward to graph.BuildCSR for the benchmark's
// staged chains; these tests pin that it builds and rejects exactly like the
// sequential builder at any worker count.

func TestBuildCSRShardedOneWorkerDelegates(t *testing.T) {
	g := graph.NewMemGraph(4, []graph.Edge{{U: 0, V: 1}})
	c, err := BuildCSRSharded(g, 10, nil, shard.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c.M() != 1 {
		t.Fatal("delegation broken")
	}
}

func TestBuildCSRShardedRejectsBadInput(t *testing.T) {
	if _, err := BuildCSRSharded(graph.NewMemGraph(4, []graph.Edge{{U: 2, V: 2}}), 10, nil,
		shard.Options{Workers: 2}); err == nil {
		t.Fatal("self-loop accepted")
	}
	if _, err := BuildCSRSharded(graph.NewMemGraph(2, []graph.Edge{{U: 0, V: 7}}), 10, nil,
		shard.Options{Workers: 2}); !errors.Is(err, graph.ErrVertexRange) {
		t.Fatal("out-of-range vertex accepted")
	}
	if _, err := BuildCSRSharded(graph.NewMemGraph(2, nil), -1, nil,
		shard.Options{Workers: 2}); err == nil {
		t.Fatal("negative tau accepted")
	}
}
