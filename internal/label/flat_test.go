package label

import (
	"math/rand"
	"strings"
	"testing"
)

// randomIndex builds a structurally valid index with sorted per-vertex
// sets and integer distances.
func randomIndex(n int, seed int64) *Index {
	rng := rand.New(rand.NewSource(seed))
	ix := NewIndex(n, 0)
	for v := 0; v < n; v++ {
		used := map[uint32]bool{}
		s := Set{}
		for k := 0; k < rng.Intn(8); k++ {
			h := uint32(rng.Intn(n))
			if used[h] {
				continue
			}
			used[h] = true
			d := uint32(rng.Intn(1000))
			if int(h) == v {
				d = 0
			}
			s = append(s, Pack(h, d))
		}
		if !used[uint32(v)] {
			s = append(s, Pack(uint32(v), 0))
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
}

// FreezeHalves packs every half at its index's unit, the graph's, in one
// pass; the refusal of a label no uint32 count holds happens where a tree
// would emit it (Units), naming the distance.
func TestFreezeHalvesUnit(t *testing.T) {
	one := func(k int, dists ...uint32) *Index {
		ix := NewIndex(1, k)
		s := Set{}
		for h, d := range dists {
			s = append(s, Pack(uint32(h), d))
		}
		ix.SetLabels(0, s)
		return ix
	}
	fs := FreezeHalves(one(2, 0, 12), one(2, 2, 9))
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
	if f := Freeze(one(0, 7, 1<<32-1)); f.UnitExp() != 0 || uint32(f.PackedRun(0)[1]) != 1<<32-1 {
		t.Fatalf("integer labels froze at 2^-%d, last entry %#x", f.UnitExp(), f.PackedRun(0)[1])
	}
	if d := Units(0, 0, 1<<32-1, 0); d != 1<<32-1 {
		t.Fatalf("Units(2^32-1) = %d", d)
	}
	for _, tc := range []struct {
		units uint64
		k     int
		name  string
	}{
		{1 << 32, 0, "4.294967296e+09"},
		{1 << 33, 2, "2.147483648e+09"},
		{1 << 60, 0, "1.152921504606847e+18"},
	} {
		func() {
			defer func() {
				err, _ := recover().(*DistError)
				if err == nil || !strings.Contains(err.Error(), tc.name) || !strings.Contains(err.Error(), "below 2^32") {
					t.Errorf("Units(%d, k=%d): %v, want a refusal naming %s", tc.units, tc.k, err, tc.name)
				}
			}()
			Units(3, 1, tc.units, tc.k)
		}()
	}
}
