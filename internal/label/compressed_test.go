package label

import (
	"math"
	"math/rand"
	"testing"
)

// randomLabelIndex builds a random label index over n vertices whose
// per-vertex hub sets are drawn from [0, n) with the given density.
// Distances mix small integers, halves (a unit of 2^-1), values past 2^24
// (which float32 could not hold, a uint32 count can) and the occasional
// -0.0, which freezes to 0. All of them are whole numbers of units below
// 2^32, so freezing loses nothing and the frozen kernels can be held to
// QueryMerge on the sets themselves.
func randomLabelIndex(rng *rand.Rand, n int, density float64) *Index {
	ix := NewIndex(n)
	for v := 0; v < n; v++ {
		s := Set{}
		for h := 0; h < n; h++ {
			if rng.Float64() >= density {
				continue
			}
			var d float64
			switch rng.Intn(6) {
			case 0, 1, 2:
				d = float64(rng.Intn(1 << 10))
			case 3:
				d = float64(rng.Intn(1<<10)) + 0.5
			case 4:
				d = float64(1<<24 + 2*rng.Intn(1<<9))
			default:
				d = math.Copysign(0, -1)
			}
			s = append(s, L{Hub: uint32(h), Dist: d})
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
	ix := NewIndex(200)
	for v := 0; v < 200; v++ {
		s := Set{}
		for h := 0; h < 200; h++ {
			if rng.Float64() < 0.15 {
				s = append(s, L{Hub: uint32(h), Dist: float64(rng.Intn(512))})
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
