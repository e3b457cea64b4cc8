package label

import (
	"math"
	"math/rand"
	"testing"
)

// randomLabelIndex builds a random label index over n vertices whose
// per-vertex hub sets are drawn from [0, n) with the given density.
// Distances mix small integers (the uvarint plane), fractional values
// and huge values (the float plane), plus the occasional -0.0 — the bit
// pattern the int plane must refuse so parity stays exact. All of them
// are float32-exact, so freezing loses nothing and the frozen kernels
// can be held to QueryMerge on the sets themselves.
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
				d = float64(rng.Intn(1 << 10)) // small int: varint plane
			case 3:
				d = float64(rng.Intn(1<<10)) + 0.5 // fractional: float plane
			case 4:
				d = float64(1<<24 + 2*rng.Intn(1<<9)) // too big for the int plane
			default:
				d = math.Copysign(0, -1) // -0.0: must stay on the float plane
			}
			s = append(s, L{Hub: uint32(h), Dist: d})
		}
		ix.SetLabels(v, s)
	}
	return ix
}

// TestCompressedSavings pins the acceptance bar from ROADMAP item 4 at
// the package level: on integer-weighted label sets (what the graph
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
