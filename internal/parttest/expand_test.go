package parttest

import (
	"fmt"
	"testing"

	"hep/internal/gen"
	"hep/internal/ooc"
)

// TestParallelExpansionQualityPin pins Buffered at W ∈ {2, 4, 8} to its
// W=1 quality on the OK, TW and LJ stand-ins at k ∈ {32, 128}: the same
// number of edges assigned, and replication factor and balance within 2%.
// Regions grow sequentially at every worker count and W only fans out the
// fallback, so more workers must never cost quality. (The name is older
// than that design; TestBufferedWorkersMatchOneWorker in internal/ooc pins
// the stronger property that the assignment sequence is identical.)
func TestParallelExpansionQualityPin(t *testing.T) {
	for _, name := range []string{"OK", "TW", "LJ"} {
		g := gen.MustDataset(name).Build(0.1)
		for _, k := range []int{32, 128} {
			seq, err := (&ooc.Buffered{BufferEdges: 1 << 15}).Partition(g, k)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4, 8} {
				t.Run(fmt.Sprintf("%s/k=%d/W=%d", name, k, workers), func(t *testing.T) {
					par, err := (&ooc.Buffered{BufferEdges: 1 << 15, Workers: workers}).Partition(g, k)
					if err != nil {
						t.Fatal(err)
					}
					if par.M != seq.M {
						t.Fatalf("W=%d assigned %d edges, W=1 %d", workers, par.M, seq.M)
					}
					if prf, srf := par.ReplicationFactor(), seq.ReplicationFactor(); prf > srf*1.02 {
						t.Errorf("RF %.4f > W=1 %.4f + 2%%", prf, srf)
					}
					if pb, sb := par.Balance(), seq.Balance(); pb > sb*1.02 {
						t.Errorf("balance %.4f > W=1 %.4f + 2%%", pb, sb)
					}
				})
			}
		}
	}
}
