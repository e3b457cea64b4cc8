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

// TestScanMinEqualsPairwiseJoins: one ScanMin pass over a run against
// the transpose of a few chosen runs yields, per chosen run, exactly
// JoinPacked's distance — Infinity left in place where no hub is shared.
func TestScanMinEqualsPairwiseJoins(t *testing.T) {
	f := Freeze(randomIndex(150, 25))
	n := f.NumVertices()
	runs := [][]uint64{nil} // an empty run among the chosen
	for v := 3; v < n; v += 17 {
		runs = append(runs, f.PackedRun(v))
	}
	iv := InvertRuns(n, runs)
	dst := make([]float64, len(runs))
	for v := 0; v < n; v++ {
		for i := range dst {
			dst[i] = Infinity
		}
		iv.ScanMin(dst, f.PackedRun(v))
		for i, run := range runs {
			if want, _, _ := JoinPacked(f.PackedRun(v), run); dst[i] != want {
				t.Fatalf("vertex %d × run %d: scan %v, join %v", v, i, dst[i], want)
			}
		}
	}
	if dst[0] != Infinity {
		t.Fatalf("empty run joined at %v", dst[0])
	}
}

// TestInvertCompressedParity: inverting a compressed store yields the
// identical Inverted, word for word — the rich workloads must not care
// which format backs the index.
func TestInvertCompressedParity(t *testing.T) {
	f := Freeze(randomIndex(120, 22))
	c, err := Compress(f)
	if err != nil {
		t.Fatal(err)
	}
	a, b := Invert(f), InvertCompressed(c)
	if len(a.offsets) != len(b.offsets) || len(a.entries) != len(b.entries) {
		t.Fatalf("shape mismatch: %d/%d offsets, %d/%d entries",
			len(a.offsets), len(b.offsets), len(a.entries), len(b.entries))
	}
	for i := range a.offsets {
		if a.offsets[i] != b.offsets[i] {
			t.Fatalf("offsets[%d] = %d vs %d", i, a.offsets[i], b.offsets[i])
		}
	}
	for i := range a.entries {
		if a.entries[i] != b.entries[i] {
			t.Fatalf("entries[%d] = %x vs %x", i, a.entries[i], b.entries[i])
		}
	}
}

// TestTopKMatchesBruteForce: TopK's k-way merge returns exactly the k
// nearest targets under the (distance, vertex) order, each with the
// same witness hub QueryHub picks (smallest among equal-distance
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
			if d, hub, ok := f.QueryHub(u, v); ok {
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

// TestScatterProbeMatchesJoin: the scatter-once/probe-many matrix
// kernel answers bit-identically to the pairwise join kernels on both
// storage formats, smallest-hub tie-break included.
func TestScatterProbeMatchesJoin(t *testing.T) {
	f := Freeze(randomIndex(140, 25))
	c, err := Compress(f)
	if err != nil {
		t.Fatal(err)
	}
	n := f.NumVertices()
	s := NewQueryScratch(n)
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 60; trial++ {
		u := rng.Intn(n)
		rs := ScatterRun(s, f.PackedRun(u))
		for i := 0; i < 40; i++ {
			v := rng.Intn(n)
			wd, wh, wok := JoinPacked(f.PackedRun(u), f.PackedRun(v))
			gd, gh, gok := rs.Probe(f.PackedRun(v))
			if gd != wd || gok != wok || (wok && gh != wh) {
				t.Fatalf("Probe(%d,%d) = (%v,%d,%v), JoinPacked says (%v,%d,%v)", u, v, gd, gh, gok, wd, wh, wok)
			}
			cd, ch, cok := rs.ProbeCompressed(c.Run(v))
			if cd != wd || cok != wok || (wok && ch != wh) {
				t.Fatalf("ProbeCompressed(%d,%d) = (%v,%d,%v), JoinPacked says (%v,%d,%v)", u, v, cd, ch, cok, wd, wh, wok)
			}
		}
	}
}
