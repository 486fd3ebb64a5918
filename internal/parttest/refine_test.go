package parttest

import (
	"fmt"
	"testing"

	"hep/internal/core"
	"hep/internal/gen"
	"hep/internal/ooc"
	"hep/internal/part"
	"hep/internal/refine"
	"hep/internal/restream"
	"hep/internal/stream"
)

// refinableMatrix are the inner algorithms the refined conformance rows
// exercise — one per capture-path family Config.Refine accepts: the in-memory
// hybrid core, stateful streaming, restreaming, and the out-of-core engine.
func refinableMatrix() []func() part.Algorithm {
	return []func() part.Algorithm{
		func() part.Algorithm { return &core.HEP{Tau: 10} },
		func() part.Algorithm { return &stream.HDRF{} },
		func() part.Algorithm { return &restream.Restream{Passes: 2} },
		func() part.Algorithm { return &ooc.Buffered{BufferEdges: 512} },
	}
}

// TestRefinedConformance extends the repository-wide validity matrix to the
// refinement post-pass: every refinable algorithm family, both modes, the
// full conformance graph set, sequential and parallel refinement — with the
// per-round invariant hook active on every run.
func TestRefinedConformance(t *testing.T) {
	graphs := conformanceGraphs()
	for _, mk := range refinableMatrix() {
		for _, mode := range []string{refine.ModeMoves, refine.ModeSplitMerge} {
			for _, workers := range []int{1, 4} {
				algo := mk()
				name := fmt.Sprintf("%s+%s/W=%d", algo.Name(), mode, workers)
				for gname, g := range graphs {
					for _, k := range []int{2, 5, 16} {
						o := refine.Options{Mode: mode, Workers: workers}
						if _, _, err := RefineInvariants(mk(), g, k, o); err != nil {
							t.Errorf("%s/%s k=%d: %v", name, gname, k, err)
						}
					}
				}
			}
		}
	}
}

// TestRefineInvariantsWorkers pins the parallel gain scan against the full
// invariant harness at worker counts 1, 2, 4 and 8, on a graph big enough
// to give every scan worker boundary vertices (run under -race in CI).
func TestRefineInvariantsWorkers(t *testing.T) {
	g := gen.MustDataset("OK").Build(0.1)
	for _, workers := range []int{1, 2, 4, 8} {
		for _, mode := range []string{refine.ModeMoves, refine.ModeSplitMerge} {
			t.Run(fmt.Sprintf("W=%d/%s", workers, mode), func(t *testing.T) {
				o := refine.Options{Mode: mode, Workers: workers, Rounds: 3}
				res, info, err := RefineInvariants(&stream.HDRF{}, g, 32, o)
				if err != nil {
					t.Fatal(err)
				}
				if info.MoveStats.Rounds == 0 {
					t.Errorf("no refinement rounds ran")
				}
				if res.M != g.NumEdges() {
					t.Errorf("assigned %d of %d edges", res.M, g.NumEdges())
				}
			})
		}
	}
}

// TestRefineImprovesStandIns is the acceptance pin: boundary-move refinement
// of HDRF output must strictly improve RF on at least 3 of the 4 social
// stand-ins at each k ∈ {32, 128}, while the invariant harness holds the
// balance bound and exactly-once guarantees on every run.
func TestRefineImprovesStandIns(t *testing.T) {
	for _, k := range []int{32, 128} {
		improved := 0
		var report []string
		for _, name := range []string{"OK", "TW", "LJ", "FR"} {
			g := gen.MustDataset(name).Build(0.2)
			res, info, err := RefineInvariants(&stream.HDRF{}, g, k, refine.Options{})
			if err != nil {
				t.Fatalf("%s k=%d: %v", name, k, err)
			}
			// The wrapper's recorded input must be the bare run's quality:
			// the capture sink may not perturb the inner algorithm.
			bare, err := (&stream.HDRF{}).Partition(g, k)
			if err != nil {
				t.Fatal(err)
			}
			if in := bare.ReplicationFactor(); in != info.InputRF {
				t.Fatalf("%s k=%d: wrapper input RF %.4f differs from bare run %.4f", name, k, info.InputRF, in)
			}
			rf := res.ReplicationFactor()
			report = append(report, fmt.Sprintf("%s: %.4f → %.4f", name, info.InputRF, rf))
			if rf < info.InputRF {
				improved++
			}
		}
		if improved < 3 {
			t.Errorf("k=%d: refinement improved RF on only %d of 4 stand-ins (%v)", k, improved, report)
		}
	}
}
