package label

import (
	"math/rand"
	"testing"
)

// randomIndex builds a structurally valid index with sorted per-vertex
// sets and float32-exact (integer) distances.
func randomIndex(n int, seed int64) *Index {
	rng := rand.New(rand.NewSource(seed))
	ix := NewIndex(n)
	for v := 0; v < n; v++ {
		used := map[uint32]bool{}
		s := Set{}
		for k := 0; k < rng.Intn(8); k++ {
			h := uint32(rng.Intn(n))
			if used[h] {
				continue
			}
			used[h] = true
			d := float64(rng.Intn(1000))
			if int(h) == v {
				d = 0
			}
			s = append(s, L{Hub: h, Dist: d})
		}
		if !used[uint32(v)] {
			s = append(s, L{Hub: uint32(v), Dist: 0})
		}
		s.Sort()
		ix.SetLabels(v, s)
	}
	return ix
}

func TestFlatMemoryAccounting(t *testing.T) {
	ix := randomIndex(100, 6)
	f := Freeze(ix)
	want := int64(101)*4 + f.NumLabels()*8
	if f.TotalMemory() != want {
		t.Fatalf("TotalMemory = %d, want %d", f.TotalMemory(), want)
	}
	if f.TotalMemory() >= ix.TotalLabels()*16 {
		t.Fatal("flat store not smaller than slice entries alone")
	}
}
