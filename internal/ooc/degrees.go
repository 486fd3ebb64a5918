package ooc

import (
	"hep/internal/graph"
	"hep/internal/shard"
)

// DegreePassParallel runs Buffered's discovery scan (discover) over src and
// returns the edge count it read; deg is always nil and opts is unused. It
// is kept, with its signature, for the benchmark's staged Buffered chain
// (bench/), which times it as the scan Buffered runs before its partition
// pass and subtracts it from the Buffered row.
func DegreePassParallel(src graph.EdgeStream, opts shard.Options) (deg []int32, m int64, err error) {
	_, m, err = discover(src)
	return nil, m, err
}
