package core

import (
	"hep/internal/graph"
	"hep/internal/shard"
)

// BuildCSRSharded is graph.BuildCSR at every worker count; opts is unused.
// It is kept, with its signature, for the benchmark's staged chains (bench/).
func BuildCSRSharded(src graph.EdgeStream, tau float64, store graph.H2HStore, opts shard.Options) (*graph.CSR, error) {
	return graph.BuildCSR(src, tau, store)
}
