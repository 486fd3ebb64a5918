package parttest

import (
	"fmt"
	"testing"

	"hep/internal/gen"
	"hep/internal/ooc"
)

// TestParallelExpansionQualityPin pins that Buffered ignores its deprecated
// Workers field: at W ∈ {2, 4, 8} on the OK, TW and LJ stand-ins at
// k ∈ {32, 128} it assigns the same number of edges with exactly the W=1
// replication factor and balance. It goes with the field;
// TestParallelExpansionExactlyOnce in internal/ooc pins the stronger
// property that the assignment sequence is identical.
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
					if prf, srf := par.ReplicationFactor(), seq.ReplicationFactor(); prf != srf {
						t.Errorf("RF %.4f, W=1 %.4f", prf, srf)
					}
					if pb, sb := par.Balance(), seq.Balance(); pb != sb {
						t.Errorf("balance %.4f, W=1 %.4f", pb, sb)
					}
				})
			}
		}
	}
}
