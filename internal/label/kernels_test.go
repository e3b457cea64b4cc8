package label

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// One table for every join kernel. checkKernels feeds the same pair of
// label sets to each surviving kernel — through every entry point and, for
// the compressed ones, at block sizes that put block boundaries in
// different places — and holds all of them to QueryMerge, the builder-side
// reference: == distance, identical witness hub (so identical smallest-hub
// tie-break), identical reachability. TestJoinKernels runs it over named
// shapes and random sets, FuzzJoinKernels over byte-steered ones.

// kernelBlockSizes: single-entry blocks, blocks that split short runs, the
// default, and the maximum.
var kernelBlockSizes = []int{1, 2, 3, CompressedBlockEntries, CompressedMaxBlockEntries}

// checkKernels asserts every kernel's answer for the pair (a, b) of label
// sets, whose hubs must be below n and whose distances float32-exact, and
// that every kernel using the scratch leaves it clean (all +Inf) — the
// invariant that lets the probes skip an occupancy test.
func checkKernels(t *testing.T, n int, a, b Set) {
	t.Helper()
	wantD, wantH, wantOK := QueryMerge(a, b)
	selfD, _, _ := QueryMerge(a, a)
	// Vertex 0 carries a, vertex 1 carries b, every other vertex nothing.
	ix := NewIndex(n)
	ix.SetLabels(0, a)
	ix.SetLabels(1, b)
	f := Freeze(ix)
	ra, rb := f.PackedRun(0), f.PackedRun(1)
	s := NewQueryScratch(n)
	clean := func(kernel string) {
		t.Helper()
		for hub, x := range s.slot {
			if !math.IsInf(x, 1) {
				t.Fatalf("%s left slot %d = %v in the scratch\na = %v\nb = %v", kernel, hub, x, a, b)
			}
		}
	}
	check := func(kernel string, d float64, h uint32, ok bool) {
		t.Helper()
		if ok != wantOK || d != wantD || (ok && h != wantH) {
			t.Fatalf("%s = (%v, %d, %v), QueryMerge = (%v, %d, %v)\na = %v\nb = %v", kernel, d, h, ok, wantD, wantH, wantOK, a, b)
		}
		clean(kernel)
	}
	// scattered runs probe against a scatter of run, then releases it.
	scattered := func(run []uint64, probe func(RunScatter)) {
		rs := ScatterRun(s, run)
		probe(rs)
		rs.Release()
	}

	d, h, ok := JoinPacked(ra, rb)
	check("JoinPacked(a,b)", d, h, ok)
	d, h, ok = JoinPacked(rb, ra)
	check("JoinPacked(b,a)", d, h, ok)
	d, h, ok = JoinPackedWith(s, ra, rb)
	check("JoinPackedWith(a,b)", d, h, ok)
	d, h, ok = JoinPackedWith(s, rb, ra)
	check("JoinPackedWith(b,a)", d, h, ok)
	d, h, ok = JoinPackedWith(nil, ra, rb)
	check("JoinPackedWith(nil scratch)", d, h, ok)
	scattered(ra, func(rs RunScatter) { d, h, ok = rs.Probe(rb) })
	check("ScatterRun(a).Probe(b)", d, h, ok)
	scattered(rb, func(rs RunScatter) { d, h, ok = rs.Probe(ra) })
	check("ScatterRun(b).Probe(a)", d, h, ok)
	d, h, ok = Join(s, f, f, 0, 1)
	check("Join(scratch, packed)", d, h, ok)
	d, h, ok = Join(nil, f, f, 0, 1)
	check("Join(nil, packed)", d, h, ok)

	// One scan of a against the transpose of {nothing, b, a}: the empty
	// run stays unreached, b's slot is the pair's distance, a's its
	// self-join.
	dst := []float64{Infinity, Infinity, Infinity}
	InvertRuns(n, [][]uint64{nil, rb, ra}).ScanMin(dst, ra)
	if dst[0] != Infinity || dst[1] != wantD || dst[2] != selfD {
		t.Fatalf("ScanMin = %v, want [+Inf %v %v]\na = %v\nb = %v", dst, wantD, selfD, a, b)
	}
	row := make([]float64, 2)
	scattered(ra, func(rs RunScatter) { rs.ProbeStore(row, f, []int{1, 0}) })
	if row[0] != wantD || row[1] != selfD {
		t.Fatalf("ProbeStore(packed) = %v, want [%v %v]", row, wantD, selfD)
	}
	clean("ProbeStore(packed)")

	for _, bs := range kernelBlockSizes {
		c, err := CompressBlocks(f, bs)
		if err != nil {
			t.Fatalf("CompressBlocks(%d): %v", bs, err)
		}
		if err := c.validate(); err != nil {
			t.Fatalf("block size %d: compressed index fails validation: %v", bs, err)
		}
		d, h, ok = JoinCompressed(c.Run(0), c.Run(1))
		check("JoinCompressed(a,b)", d, h, ok)
		d, h, ok = JoinCompressed(c.Run(1), c.Run(0))
		check("JoinCompressed(b,a)", d, h, ok)
		scattered(ra, func(rs RunScatter) { d, h, ok = rs.ProbeCompressed(c.Run(1)) })
		check("ScatterRun(a).ProbeCompressed(b)", d, h, ok)
		scattered(rb, func(rs RunScatter) { d, h, ok = rs.ProbeCompressed(c.Run(0)) })
		check("ScatterRun(b).ProbeCompressed(a)", d, h, ok)
		d, h, ok = Join(s, c, c, 0, 1)
		check("Join(compressed)", d, h, ok)
		scattered(ra, func(rs RunScatter) { rs.ProbeStore(row, c, []int{1, 0}) })
		if row[0] != wantD || row[1] != selfD {
			t.Fatalf("block size %d: ProbeStore(compressed) = %v, want [%v %v]", bs, row, wantD, selfD)
		}
		clean("ProbeStore(compressed)")
	}
}

// TestPanickedKernelDropsScratch: a run whose hub id is ≥ n panics in the
// middle of a kernel, after part of it is scattered. The pool discipline —
// Put on the normal return path only, as every caller does — must leave
// that scratch out, so the pool never hands out a dirty one.
func TestPanickedKernelDropsScratch(t *testing.T) {
	const n = 16
	var pool ScratchPool
	// Both runs end at the same out-of-range hub, so the pairwise join's
	// truncation keeps it and the scatter reaches it.
	bad := []uint64{packEntry(2, 0), packEntry(5, 0), packEntry(n+3, 0)}
	var long []uint64
	for hub := uint32(0); hub < n; hub++ {
		long = append(long, packEntry(hub, 1))
	}
	long = append(long, packEntry(n+3, 1))
	kernels := map[string]func(s *QueryScratch){
		"JoinPackedWith": func(s *QueryScratch) { JoinPackedWith(s, bad, long) },
		"ScatterRun":     func(s *QueryScratch) { ScatterRun(s, bad).Release() },
	}
	for name, kernel := range kernels {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s over a hub id ≥ n did not panic", name)
				}
			}()
			s := pool.Get(n)
			kernel(s)
			pool.Put(s)
		}()
		var held []*QueryScratch
		for i := 0; i < 8; i++ {
			s := pool.Get(n)
			for hub, x := range s.slot {
				if !math.IsInf(x, 1) {
					t.Fatalf("after a panicking %s the pool handed out a scratch with slot %d = %v", name, hub, x)
				}
			}
			held = append(held, s)
		}
		for _, s := range held {
			pool.Put(s)
		}
	}
}

// span returns the set {lo, lo+step, …} of count hubs, hub h at distance
// dist(h).
func span(lo, step, count int, dist func(h int) float64) Set {
	s := make(Set, count)
	for i := range s {
		h := lo + i*step
		s[i] = L{Hub: uint32(h), Dist: dist(h)}
	}
	return s
}

func TestJoinKernels(t *testing.T) {
	unit := func(int) float64 { return 1 }
	byHub := func(h int) float64 { return float64(h) }
	cases := []struct {
		name string
		n    int
		a, b Set
	}{
		{"both empty", 4, nil, nil},
		{"one empty", 40, span(0, 1, 30, byHub), nil},
		{"single shared hub", 8, Set{{Hub: 0, Dist: 3}}, Set{{Hub: 0, Dist: 4}}},
		{"disjoint hub ranges", 300, span(0, 1, 70, unit), span(100, 1, 70, unit)},
		{"interleaved, nothing shared", 300, span(0, 2, 140, unit), span(1, 2, 140, unit)},
		{"full overlap", 200, span(0, 1, 200, byHub), span(0, 1, 200, func(h int) float64 { return float64(400 - h) })},
		// Every witness sums to 6: the smallest hub must win.
		{"equal-distance witnesses", 8,
			Set{{Hub: 1, Dist: 5}, {Hub: 3, Dist: 3}, {Hub: 7, Dist: 1}},
			Set{{Hub: 1, Dist: 1}, {Hub: 3, Dist: 3}, {Hub: 7, Dist: 5}}},
		{"equal-distance witnesses across blocks", 400, span(0, 3, 130, unit), span(0, 2, 190, unit)},
		// The only shared hub is the last entry of a's first default-size
		// block, then the first entry of its second.
		{"block-boundary hub, end of block", 200, span(0, 1, 130, unit), Set{{Hub: CompressedBlockEntries - 1, Dist: 2}}},
		{"block-boundary hub, start of block", 200, span(0, 1, 130, unit), Set{{Hub: CompressedBlockEntries, Dist: 2}}},
		// A short run of high-rank hubs against a long one whose tail of
		// low-rank hubs the hash join truncates.
		{"long tail past the other side's maximum", 400, span(0, 1, 5, byHub), span(2, 1, 390, unit)},
		// The better witness is both runs' last entry, which the hash
		// join's truncation must keep.
		{"shared hubs only at both ends", 300,
			append(append(Set{{Hub: 0, Dist: 9}}, span(10, 2, 100, unit)...), L{Hub: 299, Dist: 1}),
			append(append(Set{{Hub: 0, Dist: 9}}, span(11, 2, 100, unit)...), L{Hub: 299, Dist: 1})},
		// Distances off the integer plane: fractional, beyond 2^24, -0.0.
		{"float-plane distances", 8,
			Set{{Hub: 1, Dist: 0.5}, {Hub: 2, Dist: 1<<24 + 2}, {Hub: 5, Dist: math.Copysign(0, -1)}},
			Set{{Hub: 1, Dist: 2.25}, {Hub: 2, Dist: 1}, {Hub: 5, Dist: 3}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkKernels(t, tc.n, tc.a, tc.b) })
	}
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		for _, density := range []float64{0.02, 0.2, 0.7} {
			for _, n := range []int{48, 300} {
				ix := randomLabelIndex(rng, n, density)
				for trial := 0; trial < 8; trial++ {
					checkKernels(t, n, ix.Labels(rng.Intn(n)), ix.Labels(rng.Intn(n)))
				}
			}
		}
	})
}

// fuzzSets turns fuzz bytes into two label sets over a shared hub space:
// each byte pair advances the hub by 1–4, puts it in a, b or both, and
// draws small distances (so witnesses tie often) that one bit each moves
// onto the fractional and the beyond-2^24 float planes.
func fuzzSets(data []byte) (n int, a, b Set) {
	if len(data) > 1200 {
		data = data[:1200]
	}
	hub := -1
	for i := 0; i+1 < len(data); i += 2 {
		x, y := data[i], data[i+1]
		hub += 1 + int(x&3)
		da, db := float64(y&0xf), float64(y>>4)
		if x&0x40 != 0 {
			da += 0.5
		}
		if x&0x80 != 0 {
			db = 1<<24 + 2*db // even, so still float32-exact
		}
		if in := x >> 2 & 3; in != 2 {
			a = append(a, L{Hub: uint32(hub), Dist: da})
		}
		if in := x >> 2 & 3; in != 1 {
			b = append(b, L{Hub: uint32(hub), Dist: db})
		}
	}
	return hub + 3, a, b
}

func FuzzJoinKernels(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x11, 0x04, 0x22, 0x08, 0x33})
	f.Add([]byte{0x0c, 0x15, 0x0c, 0x33, 0x0c, 0x51}) // three witnesses, all summing to 6
	long := make([]byte, 2*3*CompressedBlockEntries)
	for i := range long {
		long[i] = byte(i * 37)
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		n, a, b := fuzzSets(data)
		checkKernels(t, n, a, b)
	})
}

// sameRuns asserts two stores hold word-identical runs for every vertex.
func sameRuns(t *testing.T, got, want Store) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumLabels() != want.NumLabels() {
		t.Fatalf("shape mismatch: %d vertices / %d labels, want %d / %d",
			got.NumVertices(), got.NumLabels(), want.NumVertices(), want.NumLabels())
	}
	var gb, wb []uint64
	for v := 0; v < want.NumVertices(); v++ {
		g, w := got.RunInto(&gb, v), want.RunInto(&wb, v)
		if len(g) != len(w) {
			t.Fatalf("run of %d: %d entries, want %d", v, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("run of %d entry %d = %#x, want %#x", v, i, g[i], w[i])
			}
		}
	}
}

// TestStoreConformance holds both Store implementations to the contract
// the layers above rely on, over one labeling with distances on every
// plane: counts add up, the run accessor and Labels agree with the source
// sets, Slice keeps exactly the selected vertices, and the two formats
// transpose to the identical inverted index.
func TestStoreConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 90
	ix := randomLabelIndex(rng, n, 0.3)
	flat := Freeze(ix)
	stores := map[string]Store{"packed": flat}
	for _, bs := range []int{5, CompressedBlockEntries} {
		c, err := CompressBlocks(flat, bs)
		if err != nil {
			t.Fatal(err)
		}
		stores[fmt.Sprintf("compressed/%d", bs)] = c
	}
	keep := func(v int) bool { return v%3 == 0 }
	wantInv := Invert(flat)
	for name, st := range stores {
		t.Run(name, func(t *testing.T) {
			if IsCompressed(st) != (st != Store(flat)) {
				t.Fatalf("IsCompressed = %v", IsCompressed(st))
			}
			if st.NumVertices() != n || st.NumLabels() != ix.TotalLabels() {
				t.Fatalf("shape %d vertices / %d labels, want %d / %d", st.NumVertices(), st.NumLabels(), n, ix.TotalLabels())
			}
			if st.TotalMemory() <= 0 {
				t.Fatalf("TotalMemory = %d", st.TotalMemory())
			}
			var sum int64
			var buf []uint64
			for v := 0; v < n; v++ {
				want := ix.Labels(v)
				sum += int64(st.LabelCount(v))
				run, fresh, labels := st.RunInto(&buf, v), st.RunInto(nil, v), st.Labels(v)
				if st.LabelCount(v) != len(want) || len(run) != len(want) || len(fresh) != len(want) || len(labels) != len(want) {
					t.Fatalf("vertex %d: LabelCount %d, run %d, fresh run %d, Labels %d, want %d",
						v, st.LabelCount(v), len(run), len(fresh), len(labels), len(want))
				}
				for i, l := range want {
					// Bits, not ==: -0.0 must survive every encoding.
					if e := packEntry(l.Hub, l.Dist); run[i] != e || fresh[i] != e ||
						labels[i].Hub != l.Hub || math.Float64bits(labels[i].Dist) != math.Float64bits(l.Dist) {
						t.Fatalf("vertex %d label %d: run %#x, fresh %#x, Labels %+v, want %+v", v, i, run[i], fresh[i], labels[i], l)
					}
				}
			}
			if sum != st.NumLabels() {
				t.Fatalf("Σ LabelCount = %d, NumLabels = %d", sum, st.NumLabels())
			}
			if !IsCompressed(st) && buf != nil {
				t.Fatal("a fixed-width store wrote to the caller's buffer")
			}

			sl := st.Slice(keep)
			if IsCompressed(sl) != IsCompressed(st) || sl.NumVertices() != n {
				t.Fatalf("slice changed format or vertex space (%d vertices)", sl.NumVertices())
			}
			switch sl := sl.(type) {
			case *FlatIndex:
				if err := sl.validate(); err != nil {
					t.Fatalf("slice not structurally valid: %v", err)
				}
			case *CompressedIndex:
				if err := sl.validate(); err != nil {
					t.Fatalf("slice not structurally valid: %v", err)
				}
			}
			var kept int64
			for v := 0; v < n; v++ {
				switch {
				case keep(v):
					kept += int64(len(ix.Labels(v)))
				case sl.LabelCount(v) != 0 || len(sl.RunInto(nil, v)) != 0:
					t.Fatalf("dropped vertex %d still has %d labels", v, sl.LabelCount(v))
				}
			}
			if sl.NumLabels() != kept {
				t.Fatalf("slice holds %d labels, want %d", sl.NumLabels(), kept)
			}
			sameRuns(t, sl, flat.Slice(keep))

			iv := Invert(st)
			if len(iv.offsets) != len(wantInv.offsets) || len(iv.entries) != len(wantInv.entries) {
				t.Fatalf("inverted shape %d/%d, want %d/%d", len(iv.offsets), len(iv.entries), len(wantInv.offsets), len(wantInv.entries))
			}
			for i := range wantInv.offsets {
				if iv.offsets[i] != wantInv.offsets[i] {
					t.Fatalf("inverted offsets[%d] = %d, want %d", i, iv.offsets[i], wantInv.offsets[i])
				}
			}
			for i := range wantInv.entries {
				if iv.entries[i] != wantInv.entries[i] {
					t.Fatalf("inverted entries[%d] = %#x, want %#x", i, iv.entries[i], wantInv.entries[i])
				}
			}
			if c, ok := st.(*CompressedIndex); ok {
				sameRuns(t, c.Decompress(), flat)
			}
		})
	}
}
