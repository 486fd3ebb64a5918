package stream

import (
	"math"
	"math/rand"
	"testing"

	"hep/internal/graph"
	"hep/internal/part"
	"hep/internal/parttest"
)

// FuzzBestHDRF pins the class-min scorer to the full-scan reference: the
// same random replica masks and loads go into a part.Result and a
// partition-major parttest.RefState, and bestHDRF must pick exactly the
// partition parttest.RefHDRFArgmax picks (or -1 with it).
//
// The mode byte selects the state's shape:
//
//   - bits 0–1: the load base: 0, just below 2^32 (loads straddle it), 2^33
//     or 2^62 — a packed (load, index) key must not overflow;
//   - bits 2–3: the load spread above the base: 1 (every load tied), 3, 17
//     or 2^20;
//   - bits 4–5: the capacity: unbounded, a random cut through the loads,
//     every partition of one replica class at capacity, or every
//     partition at capacity;
//   - bit 6: the least-loaded partition inside (set) or outside the
//     partitions hosting an endpoint;
//   - bit 7: u keeps no bits past partition 63, so for k > 64 its later
//     mask words stay zero.
//
// u and v are the table's two vertices, so their masks sit side by side in
// one slice. The shape byte: bit 0 keeps v free of bits past partition 63,
// bit 1 swaps u and v, bit 2 gives them equal degrees (so u-only and v-only
// finalists can tie), and bit 3 leaves no partition hosting both.
func FuzzBestHDRF(f *testing.F) {
	ks := []int{1, 2, 63, 64, 65, 128, 200}
	modes := []uint8{0x00, 0x15, 0x26, 0x3b, 0x4f, 0xa3, 0xd9, 0xff}
	for i, k := range ks {
		for j, mode := range modes {
			f.Add(uint8(k-1), int64(i*len(modes)+j), mode, uint8(i+j), uint32(j+1), uint32(7*i+1))
		}
		// Tied loads, equal degrees and no partition hosting both: the
		// u-only and v-only finalists tie on score and load.
		f.Add(uint8(k-1), int64(i), uint8(0x00), uint8(0x0c), uint32(3), uint32(3))
		f.Add(uint8(k-1), int64(i), uint8(0x04), uint8(0x0e), uint32(5), uint32(5))
	}
	f.Fuzz(func(t *testing.T, kSel uint8, seed int64, mode, shape uint8, du, dv uint32) {
		k := int(kSel)%200 + 1
		rng := rand.New(rand.NewSource(seed))
		n := 2
		u, v := graph.V(0), graph.V(1)
		if shape&2 != 0 {
			u, v = v, u
		}
		degU, degV := int32(du%(1<<30))+1, int32(dv%(1<<30))+1
		if shape&4 != 0 {
			degV = degU
		}

		base := [4]int64{0, 1<<32 - 2, 1 << 33, 1 << 62}[mode&3]
		spread := [4]int64{1, 3, 17, 1 << 20}[mode>>2&3]
		loads := make([]int64, k)
		for p := range loads {
			loads[p] = base + rng.Int63n(spread)
		}
		hasU, hasV := make([]bool, k), make([]bool, k)
		pu, pv := rng.Float64(), rng.Float64()
		for p := range k {
			hasU[p] = rng.Float64() < pu && (mode&0x80 == 0 || p < 64)
			hasV[p] = rng.Float64() < pv && (shape&1 == 0 || p < 64) && (shape&8 == 0 || !hasU[p])
		}

		capacity := int64(math.MaxInt64)
		switch mode >> 4 & 3 {
		case 1:
			capacity = base + rng.Int63n(spread+1)
		case 2:
			// Fill one replica class: 1 = u only, 2 = v only, 3 = both.
			capacity = base + spread
			class := rng.Intn(3) + 1
			for p := range k {
				c := 0
				if hasU[p] {
					c |= 1
				}
				if hasV[p] {
					c |= 2
				}
				if c == class {
					loads[p] = capacity + rng.Int63n(2)
				}
			}
		case 3:
			capacity = base
		}

		am := parttest.RefArgmin(loads)
		if mode&0x40 != 0 {
			if !hasU[am] && !hasV[am] && (mode&0x80 == 0 || am < 64) {
				hasU[am] = true
			}
		} else {
			hasU[am], hasV[am] = false, false
		}

		res := part.NewResult(n, k)
		ref := parttest.NewRefState(n, k)
		for p := range k {
			res.AddLoad(p, loads[p])
			ref.Counts[p] = loads[p]
			if hasU[p] {
				res.Warm(u, p)
				ref.Reps[p].Set(u)
			}
			if hasV[p] {
				res.Warm(v, p)
				ref.Reps[p].Set(v)
			}
		}
		if maxLoad, minLoad := ref.LoadBounds(); res.Loads.Max() != maxLoad || res.Loads.Min() != minLoad {
			t.Fatalf("load tracker bounds (%d, %d), reference (%d, %d)", res.Loads.Max(), res.Loads.Min(), maxLoad, minLoad)
		}
		for _, lambda := range []float64{DefaultLambda, 0, 0.5, 4} {
			got := bestFor(res, u, v, degU, degV, lambda, capacity)
			want := parttest.RefHDRFArgmax(ref, ref, u, v, degU, degV, lambda, capacity)
			if got != want {
				t.Fatalf("k=%d λ=%v capacity=%d: bestHDRF = %d, reference = %d", k, lambda, capacity, got, want)
			}
		}
	})
}
