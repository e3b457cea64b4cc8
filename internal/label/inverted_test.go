package label

import (
	"math/rand"
	"sort"
	"testing"
)

// TestInvertTranspose: the inverted index is the exact transpose of the
// flat store — every (v, h, d) label appears as posting (h → v, d) and
// nothing else, with every posting list sorted by (distance, vertex).
func TestInvertTranspose(t *testing.T) {
	ix := randomIndex(150, 21)
	f := Freeze(ix)
	iv := Invert(f)
	if iv.NumPostings() != f.NumLabels() {
		t.Fatalf("inverted index has %d postings, store has %d labels", iv.NumPostings(), f.NumLabels())
	}
	if want := int64(len(iv.offsets))*4 + int64(len(iv.entries))*8; iv.TotalMemory() != want {
		t.Fatalf("TotalMemory() = %d, posting arrays hold %d bytes", iv.TotalMemory(), want)
	}
	n := f.NumVertices()
	want := make(map[uint32][]uint64, n) // hub -> expected postings
	for v := 0; v < n; v++ {
		for _, e := range f.PackedRun(v) {
			h := uint32(e >> 32)
			want[h] = append(want[h], invEntry(uint32(e), v))
		}
	}
	for h := uint32(0); int(h) < n; h++ {
		exp := want[h]
		sort.Slice(exp, func(i, j int) bool { return exp[i] < exp[j] })
		got := iv.Postings(h)
		if len(got) != len(exp) {
			t.Fatalf("hub %d has %d postings, want %d", h, len(got), len(exp))
		}
		for i := range exp {
			if got[i] != exp[i] {
				t.Fatalf("hub %d posting[%d] = %x, want %x", h, i, got[i], exp[i])
			}
		}
	}
}

// TestTopKMatchesBruteForce: TopK's k-way merge returns exactly the k
// nearest targets under the (distance, vertex) order, each with the
// same witness hub JoinPacked picks (smallest among equal-distance
// witnesses) — on a fixture dense with distance ties.
func TestTopKMatchesBruteForce(t *testing.T) {
	ix := randomIndex(130, 23)
	f := Freeze(ix)
	iv := Invert(f)
	n := f.NumVertices()
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 50; trial++ {
		u := rng.Intn(n)
		k := 1 + rng.Intn(n)
		type cand struct {
			v   int
			d   float64
			hub uint32
		}
		var all []cand
		for v := 0; v < n; v++ {
			if v == u {
				continue
			}
			if d, hub, ok := JoinPacked(f.PackedRun(u), f.PackedRun(v)); ok {
				all = append(all, cand{v, d, hub})
			}
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].d != all[j].d {
				return all[i].d < all[j].d
			}
			return all[i].v < all[j].v
		})
		if len(all) > k {
			all = all[:k]
		}
		got := iv.TopK(f.PackedRun(u), k, u)
		if len(got) != len(all) {
			t.Fatalf("TopK(%d,%d) returned %d, brute force says %d", u, k, len(got), len(all))
		}
		for i, nb := range got {
			if nb.V != all[i].v || nb.Dist != all[i].d || nb.Hub != all[i].hub {
				t.Fatalf("TopK(%d,%d)[%d] = (%d,%v,hub %d), brute force says (%d,%v,hub %d)",
					u, k, i, nb.V, nb.Dist, nb.Hub, all[i].v, all[i].d, all[i].hub)
			}
		}
	}
	if iv.TopK(nil, 5, -1) != nil {
		t.Fatal("TopK of an empty run must be empty")
	}
	if iv.TopK(f.PackedRun(0), 0, -1) != nil {
		t.Fatal("TopK with k=0 must be empty")
	}
}
