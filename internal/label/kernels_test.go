package label

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// One table for every join kernel. checkKernels feeds the same pair of
// label sets to each surviving kernel — through every entry point, packed
// and compressed — and holds all of them to bruteJoin: == distance,
// identical witness hub (so identical smallest-hub tie-break), identical
// reachability. TestJoinKernels runs it over named shapes and random sets,
// FuzzJoinKernels over byte-steered ones.

// bruteJoin is the reference, and shares no loop with the kernels under
// test: the minimum of d(u,h)+d(h,v) in units over the hubs b shares with
// a hub→units map of a, the smallest hub on ties, and ok=false (and
// Infinity) when there is none.
func bruteJoin(a, b Set) (dist float64, hub uint32, ok bool) {
	units := make(map[uint32]uint32, len(a))
	for _, l := range a {
		units[Hub(l)] = Dist(l)
	}
	dist = Infinity
	for _, l := range b {
		du, shared := units[Hub(l)]
		if !shared {
			continue
		}
		if d := float64(du) + float64(Dist(l)); d < dist || d == dist && Hub(l) < hub {
			dist, hub, ok = d, Hub(l), true
		}
	}
	return dist, hub, ok
}

// checkKernels asserts every kernel's answer for the pair (a, b) of label
// sets, whose hubs must be below n and whose distances count units of
// 2^-k, and that every kernel using the table leaves it clean (all
// absent) — the invariant that lets the probes skip an occupancy test. The kernels
// over runs answer in units, scaled here by FromUnits; Join and ProbeStore
// answer in distances themselves.
func checkKernels(t *testing.T, n, k int, a, b Set) {
	t.Helper()
	wantD, wantH, wantOK := bruteJoin(a, b)
	selfD, _, _ := bruteJoin(a, a)
	wantD, selfD = FromUnits(wantD, k), FromUnits(selfD, k)
	// Vertex 0 carries a, vertex 1 carries b, every other vertex nothing.
	ix := NewIndex(n, k)
	ix.SetLabels(0, a)
	ix.SetLabels(1, b)
	f := Freeze(ix)
	ra, rb := f.PackedRun(0), f.PackedRun(1)
	s := NewHubTable(n)
	clean := func(kernel string) {
		t.Helper()
		for hub, x := range s.slot {
			if x != absent {
				t.Fatalf("%s left slot %d = %v in the table\na = %v\nb = %v", kernel, hub, x, a, b)
			}
		}
	}
	check := func(kernel string, d float64, h uint32, ok bool) {
		t.Helper()
		if ok != wantOK || d != wantD || (ok && h != wantH) {
			t.Fatalf("%s = (%v, %d, %v), bruteJoin = (%v, %d, %v)\na = %v\nb = %v", kernel, d, h, ok, wantD, wantH, wantOK, a, b)
		}
		clean(kernel)
	}
	raw := func(kernel string, units float64, h uint32, ok bool) {
		t.Helper()
		check(kernel, FromUnits(units, k), h, ok)
	}
	// scattered runs probe against a scatter of run, then releases it.
	scattered := func(run []uint64, probe func(RunScatter)) {
		rs := ScatterRun(s, run)
		probe(rs)
		rs.Release()
	}

	d, h, ok := JoinPacked(ra, rb)
	raw("JoinPacked(a,b)", d, h, ok)
	d, h, ok = JoinPacked(rb, ra)
	raw("JoinPacked(b,a)", d, h, ok)
	d, h, ok = JoinPackedWith(s, ra, rb)
	raw("JoinPackedWith(a,b)", d, h, ok)
	d, h, ok = JoinPackedWith(s, rb, ra)
	raw("JoinPackedWith(b,a)", d, h, ok)
	d, h, ok = JoinPackedWith(nil, ra, rb)
	raw("JoinPackedWith(nil scratch)", d, h, ok)
	scattered(ra, func(rs RunScatter) { d, h, ok = rs.Probe(rb) })
	raw("ScatterRun(a).Probe(b)", d, h, ok)
	scattered(rb, func(rs RunScatter) { d, h, ok = rs.Probe(ra) })
	raw("ScatterRun(b).Probe(a)", d, h, ok)
	d, h, ok = Join(s, f, f, 0, 1)
	check("Join(scratch, packed)", d, h, ok)
	d, h, ok = Join(nil, f, f, 0, 1)
	check("Join(nil, packed)", d, h, ok)

	row := make([]float64, 2)
	scattered(ra, func(rs RunScatter) { rs.ProbeStore(row, f, []int{1, 0}) })
	if row[0] != wantD || row[1] != selfD {
		t.Fatalf("ProbeStore(packed) = %v, want [%v %v]", row, wantD, selfD)
	}
	clean("ProbeStore(packed)")

	c, err := Compress(f)
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	if err := c.validate(); err != nil {
		t.Fatalf("compressed index fails validation: %v", err)
	}
	sameRuns(t, c, f)
	d, h, ok = JoinCompressed(c.Run(0), c.Run(1))
	raw("JoinCompressed(a,b)", d, h, ok)
	d, h, ok = JoinCompressed(c.Run(1), c.Run(0))
	raw("JoinCompressed(b,a)", d, h, ok)
	scattered(ra, func(rs RunScatter) { d, h, ok = rs.ProbeCompressed(c.Run(1)) })
	raw("ScatterRun(a).ProbeCompressed(b)", d, h, ok)
	scattered(rb, func(rs RunScatter) { d, h, ok = rs.ProbeCompressed(c.Run(0)) })
	raw("ScatterRun(b).ProbeCompressed(a)", d, h, ok)
	d, h, ok = Join(s, c, c, 0, 1)
	check("Join(compressed)", d, h, ok)
	scattered(ra, func(rs RunScatter) { rs.ProbeStore(row, c, []int{1, 0}) })
	if row[0] != wantD || row[1] != selfD {
		t.Fatalf("ProbeStore(compressed) = %v, want [%v %v]", row, wantD, selfD)
	}
	clean("ProbeStore(compressed)")
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
	bad := []uint64{Pack(2, 0), Pack(5, 0), Pack(n+3, 0)}
	var long []uint64
	for hub := uint32(0); hub < n; hub++ {
		long = append(long, Pack(hub, 1))
	}
	long = append(long, Pack(n+3, 1))
	kernels := map[string]func(s *HubTable){
		"JoinPackedWith": func(s *HubTable) { JoinPackedWith(s, bad, long) },
		"ScatterRun":     func(s *HubTable) { ScatterRun(s, bad).Release() },
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
		var held []*HubTable
		for i := 0; i < 8; i++ {
			s := pool.Get(n)
			for hub, x := range s.slot {
				if x != absent {
					t.Fatalf("after a panicking %s the pool handed out a table with slot %d = %v", name, hub, x)
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
func span(lo, step, count int, dist func(h int) uint32) Set {
	s := make(Set, count)
	for i := range s {
		h := lo + i*step
		s[i] = Pack(uint32(h), dist(h))
	}
	return s
}

func TestJoinKernels(t *testing.T) {
	unit := func(int) uint32 { return 1 }
	byHub := func(h int) uint32 { return uint32(h) }
	cases := []struct {
		name string
		n    int
		a, b Set
	}{
		{"both empty", 4, nil, nil},
		{"one empty", 40, span(0, 1, 30, byHub), nil},
		{"single shared hub", 8, Set{Pack(0, 3)}, Set{Pack(0, 4)}},
		{"disjoint hub ranges", 300, span(0, 1, 70, unit), span(100, 1, 70, unit)},
		{"interleaved, nothing shared", 300, span(0, 2, 140, unit), span(1, 2, 140, unit)},
		{"full overlap", 200, span(0, 1, 200, byHub), span(0, 1, 200, func(h int) uint32 { return uint32(400 - h) })},
		// Every witness sums to 6: the smallest hub must win.
		{"equal-distance witnesses", 8,
			Set{Pack(1, 5), Pack(3, 3), Pack(7, 1)},
			Set{Pack(1, 1), Pack(3, 3), Pack(7, 5)}},
		// Long runs with many equal-distance witnesses, and a lone
		// shared hub in the middle of a long run (at the entries the
		// retired 64-entry blocks of the compressed encoding split at).
		{"equal-distance witnesses across blocks", 400, span(0, 3, 130, unit), span(0, 2, 190, unit)},
		{"block-boundary hub, end of block", 200, span(0, 1, 130, unit), Set{Pack(63, 2)}},
		{"block-boundary hub, start of block", 200, span(0, 1, 130, unit), Set{Pack(64, 2)}},
		// The stream shapes of the compressed encoding beyond the empty
		// runs and the one-entry runs at hub 0 (a first gap of 0) above: a
		// one-entry run against a long one, hub gaps of 1, 2 and 3 varint
		// bytes (below 2^7, 2^14 and 2^21), and unit counts of 1, 2, 3 and
		// 5 bytes up to 2^32−1 (below 2^7, 2^14, 2^21, and past 2^28).
		{"one-entry run", 200, Set{Pack(150, 1)}, span(0, 1, 200, byHub)},
		{"hub gaps of 1, 2 and 3 varint bytes", 40000,
			Set{Pack(0, 1), Pack(127, 1), Pack(128+16383, 1), Pack(128+16383+1+16384, 1)},
			Set{Pack(127, 4), Pack(128+16383+1+16384, 2)}},
		{"unit counts of 1, 2, 3 and 5 varint bytes", 8,
			Set{Pack(1, 127), Pack(2, 16383), Pack(3, 1<<21-1), Pack(4, math.MaxUint32)},
			Set{Pack(1, 1<<31), Pack(2, 1<<7), Pack(3, 1<<14), Pack(4, 1<<28)}},
		{"units = 2^32-1 on both sides", 4,
			Set{Pack(0, math.MaxUint32), Pack(3, math.MaxUint32)},
			Set{Pack(3, math.MaxUint32)}},
		// A short run of high-rank hubs against a long one whose tail of
		// low-rank hubs the hash join truncates.
		{"long tail past the other side's maximum", 400, span(0, 1, 5, byHub), span(2, 1, 390, unit)},
		// The better witness is both runs' last entry, which the hash
		// join's truncation must keep.
		{"shared hubs only at both ends", 300,
			append(append(Set{Pack(0, 9)}, span(10, 2, 100, unit)...), Pack(299, 1)),
			append(append(Set{Pack(0, 9)}, span(11, 2, 100, unit)...), Pack(299, 1))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkKernels(t, tc.n, 0, tc.a, tc.b) })
	}
	// Distances float32 could not hold as integers: fractional (a unit of
	// 2^-2: 0.5 and 2.25 count 2 and 9 units), beyond 2^24.
	t.Run("float-plane distances", func(t *testing.T) {
		checkKernels(t, 8, 2,
			Set{Pack(1, 2), Pack(2, (1<<24+2)*4), Pack(5, 0)},
			Set{Pack(1, 9), Pack(2, 4), Pack(5, 12)})
	})
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		for _, density := range []float64{0.02, 0.2, 0.7} {
			for _, n := range []int{48, 300} {
				ix := randomLabelIndex(rng, n, density)
				for trial := 0; trial < 8; trial++ {
					checkKernels(t, n, ix.UnitExp(), ix.Labels(rng.Intn(n)), ix.Labels(rng.Intn(n)))
				}
			}
		}
	})
}

// TestJoinCompressedWideHubGaps covers the hub gaps no n-vertex table
// above can afford: 4- and 5-byte varints (gaps of 2^21 and 2^28 and
// more, up to hub 2^32−1). The streams round-trip through the decoder
// and join exactly like the packed runs: two witnesses tie at 6, and the
// smaller hub, 2^21+1, wins.
func TestJoinCompressedWideHubGaps(t *testing.T) {
	const h1, h2 = 1<<21 + 1, 1<<21 + 1<<28 + 2
	runs := [][]uint64{
		{Pack(0, 3), Pack(h1, 5), Pack(h2, 1), Pack(math.MaxUint32, 2)},
		{Pack(h1, 1), Pack(h2, 5), Pack(math.MaxUint32, math.MaxUint32)},
	}
	sa, sb := appendStream(nil, runs[0]), appendStream(nil, runs[1])
	// (gap, units) varint bytes: a (1,1) (4,1) (5,1) (5,1); b (4,1) (5,1) (5,5).
	if len(sa) != 19 || len(sb) != 21 {
		t.Fatalf("streams of %d and %d bytes, want 19 and 21", len(sa), len(sb))
	}
	c := &CompressedIndex{n: 2, offsets: []uint32{0, uint32(len(sa)), uint32(len(sa) + len(sb))}, data: append(sa, sb...)}
	for v, want := range runs {
		got := c.AppendPackedRun(nil, v)
		if len(got) != len(want) {
			t.Fatalf("run %d decodes to %d entries, want %d", v, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("run %d entry %d = %#x, want %#x", v, i, got[i], want[i])
			}
		}
	}
	for _, p := range [][2]int{{0, 1}, {1, 0}} {
		d, h, ok := JoinCompressed(c.Run(p[0]), c.Run(p[1]))
		wd, wh, wok := bruteJoin(runs[p[0]], runs[p[1]])
		if d != wd || h != wh || ok != wok || d != 6 || h != h1 {
			t.Fatalf("JoinCompressed%v = (%v, %d, %v), bruteJoin = (%v, %d, %v), want (6, %d, true)", p, d, h, ok, wd, wh, wok, h1)
		}
	}
}

// fuzzSets turns fuzz bytes into two label sets over a shared hub space:
// each byte pair advances the hub by 1–4 (one bit adds 200, a two-byte
// varint gap), puts it in a, b or both, and draws small distances (so
// witnesses tie often), counted in half units, that one bit each makes
// fractional, moves past 2^24, or moves past 2^29 (a five-byte unit count).
func fuzzSets(data []byte) (n int, a, b Set) {
	if len(data) > 1200 {
		data = data[:1200]
	}
	hub := -1
	for i := 0; i+1 < len(data); i += 2 {
		x, y := data[i], data[i+1]
		hub += 1 + int(x&3)
		if x&0x10 != 0 {
			hub += 200
		}
		da, db := 2*uint32(y&0xf), 2*uint32(y>>4)
		if x&0x20 != 0 {
			da += 1 << 30
		}
		if x&0x40 != 0 {
			da++
		}
		if x&0x80 != 0 {
			db = 2 * (1<<24 + db)
		}
		if in := x >> 2 & 3; in != 2 {
			a = append(a, Pack(uint32(hub), da))
		}
		if in := x >> 2 & 3; in != 1 {
			b = append(b, Pack(uint32(hub), db))
		}
	}
	return hub + 3, a, b
}

func FuzzJoinKernels(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x11, 0x04, 0x22, 0x08, 0x33})
	f.Add([]byte{0x0c, 0x15, 0x0c, 0x33, 0x0c, 0x51}) // three witnesses, all summing to 6
	long := make([]byte, 384)
	for i := range long {
		long[i] = byte(i * 37)
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		n, a, b := fuzzSets(data)
		checkKernels(t, n, 1, a, b)
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
// the layers above rely on, over two labelings with fractional, large and
// zero distances and the compressed streams' edge shapes (an empty run, a
// one-entry run at hub 0, a two-byte hub gap, a unit count of 2^32−1). The
// labelings differ in their mean hub gap, which names the subtest: 5 (long
// runs of one-byte gaps) and 64 (short runs, many gaps of two varint bytes).
// Per store: counts add up, the run accessor and Labels agree with the
// source sets, Slice keeps exactly the selected vertices, and the two
// formats transpose to the identical inverted index.
func TestStoreConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type labeling struct {
		ix   *Index
		flat *FlatIndex
		c    *CompressedIndex
	}
	gaps := []int{5, 64}
	labelings := make([]labeling, len(gaps))
	for i, gap := range gaps {
		ix := randomLabelIndex(rng, 200, 1/float64(gap))
		ix.SetLabels(1, nil)
		ix.SetLabels(2, Set{Pack(0, math.MaxUint32)}) // 2^32−1 half units
		ix.SetLabels(3, Set{Pack(0, 2), Pack(1, 1), Pack(190, 14)})
		flat := Freeze(ix)
		c, err := Compress(flat)
		if err != nil {
			t.Fatal(err)
		}
		labelings[i] = labeling{ix, flat, c}
	}
	for _, format := range []string{"packed", "compressed"} {
		t.Run(format, func(t *testing.T) {
			for i, gap := range gaps {
				l := labelings[i]
				st := Store(l.flat)
				if format == "compressed" {
					st = l.c
				}
				t.Run(strconv.Itoa(gap), func(t *testing.T) { checkStore(t, l.ix, l.flat, st) })
			}
		})
	}
}

// checkStore is TestStoreConformance's contract for st, which holds the
// labels of ix, frozen as flat.
func checkStore(t *testing.T, ix *Index, flat *FlatIndex, st Store) {
	t.Helper()
	n := ix.NumVertices()
	keep := func(v int) bool { return v%3 == 0 }
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
			if run[i] != l || fresh[i] != l || labels[i] != l {
				t.Fatalf("vertex %d label %d: run %#x, fresh %#x, Labels %#x, want %#x", v, i, run[i], fresh[i], labels[i], l)
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

	iv, wantInv := Invert(st), Invert(flat)
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
}
