package hep

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
)

// TestOutputFingerprintWideK pins the output of the replica-table readers
// past the first mask word bit for bit: an FNV-64a hash over the sink
// sequence (u, v, p) of HDRF at Workers 1 (partial degrees) and 2 (exact
// degrees), HEP at τ = 10, Buffered and Greedy on the TW and OK stand-ins
// at k ∈ {128, 256}. Every vertex there keeps two or four mask words, so a
// change to how the table stores or reads any word beyond the first that
// moves a single edge changes a hash. The hashes were recorded while the
// table still kept partitions past 63 in lazily allocated pages.
func TestOutputFingerprintWideK(t *testing.T) {
	rows := []struct {
		name string
		cfg  Config
	}{
		{"hdrf-w1", Config{Algorithm: AlgoHDRF, Workers: 1}},
		{"hdrf-w2", Config{Algorithm: AlgoHDRF, Workers: 2}},
		{"hep-tau10", Config{Algorithm: AlgoHEP, Tau: 10}},
		{"buffered", Config{Algorithm: AlgoBuffered, Buffer: 1 << 14}},
		{"greedy", Config{Algorithm: AlgoGreedy}},
	}
	want := map[string]uint64{
		"TW/k=128/hdrf-w1":   0xdca23b928d6901b4,
		"TW/k=128/hdrf-w2":   0x97ccbc5857b9a5cb,
		"TW/k=128/hep-tau10": 0x1ed7a6507a6d10d1,
		"TW/k=128/buffered":  0x17b2fea3c53314b5,
		"TW/k=128/greedy":    0x372f007b704e1d7a,
		"TW/k=256/hdrf-w1":   0x0eb588232f4bda8a,
		"TW/k=256/hdrf-w2":   0x6915d1c1fa32cb11,
		"TW/k=256/hep-tau10": 0x601c07962c1eb8f1,
		"TW/k=256/buffered":  0xf04f1c3444ef0771,
		"TW/k=256/greedy":    0x077304ae911a316c,
		"OK/k=128/hdrf-w1":   0x53d9cc268edda7b1,
		"OK/k=128/hdrf-w2":   0x78568ff630ad9c3f,
		"OK/k=128/hep-tau10": 0xdfa54d546f8c8b17,
		"OK/k=128/buffered":  0x326b478078fe38e6,
		"OK/k=128/greedy":    0x2cb5dd7874c12db2,
		"OK/k=256/hdrf-w1":   0xa9395dea4f3f7061,
		"OK/k=256/hdrf-w2":   0x01f153dbdaa21ad1,
		"OK/k=256/hep-tau10": 0xf4117f1f583199bb,
		"OK/k=256/buffered":  0x22dd904c39e657b6,
		"OK/k=256/greedy":    0x1226ca9ae7250803,
	}
	for _, ds := range []string{"TW", "OK"} {
		g := Dataset(ds, 0.1)
		for _, k := range []int{128, 256} {
			for _, row := range rows {
				key := fmt.Sprintf("%s/k=%d/%s", ds, k, row.name)
				h := fnv.New64a()
				var rec [12]byte
				cfg := row.cfg
				cfg.K = k
				cfg.Sink = sinkFunc(func(u, v uint32, p int) {
					binary.LittleEndian.PutUint32(rec[0:], u)
					binary.LittleEndian.PutUint32(rec[4:], v)
					binary.LittleEndian.PutUint32(rec[8:], uint32(p))
					h.Write(rec[:])
				})
				if _, err := Partition(g, cfg); err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				if got := h.Sum64(); got != want[key] {
					t.Errorf("%s: fingerprint %#016x, want %#016x", key, got, want[key])
				}
			}
		}
	}
}
