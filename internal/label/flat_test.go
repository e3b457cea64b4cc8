package label

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// randomIndex builds a structurally valid index with sorted per-vertex
// sets and integer distances.
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

// FreezeHalves packs at the coarsest unit that counts every label of
// every half, and refuses what no uint32 count of a unit up to 2^-63
// holds, naming the distance.
func TestFreezeHalvesUnit(t *testing.T) {
	one := func(dists ...float64) *Index {
		ix := NewIndex(1)
		s := Set{}
		for h, d := range dists {
			s = append(s, L{Hub: uint32(h), Dist: d})
		}
		ix.SetLabels(0, s)
		return ix
	}
	fs, err := FreezeHalves(one(0, 3), one(0.5, 2.25))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range [][]uint32{{0, 12}, {2, 9}} {
		if fs[i].UnitExp() != 2 {
			t.Fatalf("half %d: UnitExp %d, want 2", i, fs[i].UnitExp())
		}
		for j, e := range fs[i].PackedRun(0) {
			if uint32(e) != want[j] {
				t.Fatalf("half %d entry %d: %d units, want %d", i, j, uint32(e), want[j])
			}
		}
	}
	if f := Freeze(one(7, 1<<32-1)); f.UnitExp() != 0 || uint32(f.PackedRun(0)[1]) != 1<<32-1 {
		t.Fatalf("integer labels froze at 2^-%d, last entry %#x", f.UnitExp(), f.PackedRun(0)[1])
	}
	for _, tc := range []struct {
		dist float64
		name string
	}{
		{1 << 32, "4.294967296e+09"},
		{0.1, "0.1"},                                  // 2^-55 units: 0.1 counts 3.6e15 of them
		{math.Ldexp(1, -70), "8.470329472543003e-22"}, // needs 2^-70
		{-1, "-1"},
	} {
		if _, err := FreezeHalves(one(tc.dist)); err == nil || !strings.Contains(err.Error(), tc.name) {
			t.Errorf("distance %v: %v, want a refusal naming %s", tc.dist, err, tc.name)
		}
	}
}
