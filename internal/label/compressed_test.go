package label

import (
	"math/rand"
	"testing"
)

// randomLabelIndex builds a random label index over n vertices whose
// per-vertex hub sets are drawn from [0, n) with the given density.
// Distances count half units (k = 1) and mix small integers, halves,
// values past 2^24 (which float32 could not hold, a uint32 count can) and
// the occasional 0, so the frozen kernels can be held to bruteJoin on the
// sets themselves.
func randomLabelIndex(rng *rand.Rand, n int, density float64) *Index {
	ix := NewIndex(n, 1)
	for v := 0; v < n; v++ {
		s := Set{}
		for h := 0; h < n; h++ {
			if rng.Float64() >= density {
				continue
			}
			var d uint32
			switch rng.Intn(6) {
			case 0, 1, 2:
				d = 2 * uint32(rng.Intn(1<<10))
			case 3:
				d = 2*uint32(rng.Intn(1<<10)) + 1
			case 4:
				d = 2 * uint32(1<<24+2*rng.Intn(1<<9))
			}
			s = append(s, Pack(uint32(h), d))
		}
		ix.SetLabels(v, s)
	}
	return ix
}

// TestCompressedSavings pins the compressed store's acceptance bar at the
// package level: on integer-weighted label sets (what the graph
// generators emit), the compressed arrays are at least 25% smaller than
// the fixed-width flat arrays.
func TestCompressedSavings(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ix := NewIndex(200, 0)
	for v := 0; v < 200; v++ {
		s := Set{}
		for h := 0; h < 200; h++ {
			if rng.Float64() < 0.15 {
				s = append(s, Pack(uint32(h), uint32(rng.Intn(512))))
			}
		}
		ix.SetLabels(v, s)
	}
	f := Freeze(ix)
	c, err := Compress(f)
	if err != nil {
		t.Fatal(err)
	}
	flat := f.TotalMemory()
	comp := c.TotalMemory()
	if comp > flat*3/4 {
		t.Fatalf("compressed arrays take %d bytes, flat %d — less than 25%% saved", comp, flat)
	}
}
