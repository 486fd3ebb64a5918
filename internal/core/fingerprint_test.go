package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"hep/internal/gen"
	"hep/internal/graph"
	"hep/internal/part"
)

// TestNEPPOutputFingerprint pins NE++ and HEP output bit for bit: an FNV-64a
// hash over the one-worker sink sequence (u, v, p), followed by the run's
// Stats, for HEP at τ ∈ {1, 5, 10, 100} and pure NE++ (τ = ∞) on three
// stand-ins at k = 32. A change to NE++'s traversal, removal or spill order
// that moves a single edge, or shifts a single counter, changes a hash. No
// vertex of these stand-ins reaches 100× the mean degree, so τ = 100 prunes
// nothing and hashes like pure NE++. The hashes were recorded while NE++
// still kept its vertex state in three bitsets.
func TestNEPPOutputFingerprint(t *testing.T) {
	for _, tc := range []struct {
		ds   string
		tau  float64
		want uint64
	}{
		{"TW", 1, 0x16a50f12fd1fbb7b},
		{"TW", 5, 0xbe6eb5e3533cbd21},
		{"TW", 10, 0xb8b976aa338e0ad9},
		{"TW", 100, 0xd0884dfa4330cd34},
		{"TW", math.Inf(1), 0xd0884dfa4330cd34},
		{"OK", 1, 0x6abc8067b79f1e52},
		{"OK", 5, 0x19ef54b8cc132405},
		{"OK", 10, 0x82fffff61cf602ff},
		{"OK", 100, 0x78573197fa92f50e},
		{"OK", math.Inf(1), 0x78573197fa92f50e},
		{"LJ", 1, 0x4d0e13c3635a9fc7},
		{"LJ", 5, 0xfe2fc44c4e390ce7},
		{"LJ", 10, 0x847aace8486badbb},
		{"LJ", 100, 0x5d82b6722c39299f},
		{"LJ", math.Inf(1), 0x5d82b6722c39299f},
	} {
		g := gen.MustDataset(tc.ds).Build(0.1)
		h := fnv.New64a()
		var rec [12]byte
		hp := &HEP{Tau: tc.tau, Workers: 1}
		hp.SetSink(part.SinkFunc(func(u, v graph.V, p int) {
			binary.LittleEndian.PutUint32(rec[0:], u)
			binary.LittleEndian.PutUint32(rec[4:], v)
			binary.LittleEndian.PutUint32(rec[8:], uint32(p))
			h.Write(rec[:])
		}))
		if _, err := hp.Partition(g, 32); err != nil {
			t.Fatalf("%s τ=%g: %v", tc.ds, tc.tau, err)
		}
		if err := binary.Write(h, binary.LittleEndian, hp.LastStats); err != nil {
			t.Fatal(err)
		}
		if got := h.Sum64(); got != tc.want {
			t.Errorf("%s τ=%g: fingerprint %#016x, want %#016x", tc.ds, tc.tau, got, tc.want)
		}
	}
}
