package label

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
	"unsafe"
)

func set(labels ...uint64) Set { return Set(labels) }

func TestSetSortFindClone(t *testing.T) {
	s := set(Pack(5, 2), Pack(1, 3), Pack(9, 1))
	s.Sort()
	if !s.IsSorted() {
		t.Fatalf("not sorted: %v", s)
	}
	if d, ok := s.Find(5); !ok || d != 2 {
		t.Fatalf("Find(5) = %v,%v", d, ok)
	}
	if _, ok := s.Find(4); ok {
		t.Fatal("phantom hub 4")
	}
	c := s.Clone()
	c[0] = Pack(Hub(c[0]), 99)
	if Dist(s[0]) == 99 {
		t.Fatal("Clone aliases storage")
	}
}

func TestMerge(t *testing.T) {
	a := set(Pack(1, 5), Pack(3, 2), Pack(7, 1))
	b := set(Pack(2, 4), Pack(3, 9), Pack(8, 3))
	m := a.Merge(b)
	if !m.IsSorted() || len(m) != 5 {
		t.Fatalf("merge = %v", m)
	}
	if d, _ := m.Find(3); d != 2 {
		t.Fatalf("duplicate hub kept dist %v, want min 2", d)
	}
	if got := Set(nil).Merge(a); len(got) != 3 {
		t.Fatal("merge into empty broken")
	}
	if got := a.Merge(nil); len(got) != 3 {
		t.Fatal("merge of empty broken")
	}
}

// TestIndexQueryHub: the builders' Index answers through JoinPacked, in
// distances, with the smallest hub on ties and Infinity for no common hub.
func TestIndexQueryHub(t *testing.T) {
	ix := NewIndex(8, 1) // half units
	ix.SetLabels(0, set(Pack(0, 0), Pack(2, 1), Pack(5, 7)))
	ix.SetLabels(1, set(Pack(0, 20), Pack(1, 0), Pack(2, 2), Pack(5, 1)))
	ix.SetLabels(3, set(Pack(1, 2), Pack(3, 0), Pack(4, 4)))
	ix.SetLabels(4, set(Pack(1, 2), Pack(4, 0)))
	ix.SetLabels(6, set(Pack(6, 0)))
	for _, c := range []struct {
		u, v int
		d    float64
		hub  uint32
		ok   bool
	}{
		{0, 1, 1.5, 2, true},
		{3, 4, 2, 1, true}, // hubs 1 and 4 both sum to 4 units: 1 wins
		{0, 6, Infinity, 0, false},
		{6, 6, 0, 6, true},
		{7, 7, Infinity, 0, false},
	} {
		if d, hub, ok := ix.QueryHub(c.u, c.v); d != c.d || ok != c.ok || ok && hub != c.hub {
			t.Errorf("QueryHub(%d, %d) = %v,%d,%v, want %v,%d,%v", c.u, c.v, d, hub, ok, c.d, c.hub, c.ok)
		}
	}
}

func TestValidate(t *testing.T) {
	good := set(Pack(1, 2), Pack(3, 1), Pack(4, 0))
	if err := good.Validate(4, 10); err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		s     Set
		owner int
	}{
		{set(Pack(3, 1), Pack(1, 1)), 0}, // unsorted
		{set(Pack(1, 1), Pack(1, 2)), 0}, // duplicate hub
		{set(Pack(12, 1)), 0},            // out of range
		{set(Pack(2, 5)), 2},             // self label nonzero
	}
	for i, c := range bad {
		if err := c.s.Validate(c.owner, 10); err == nil {
			t.Errorf("case %d accepted: %v", i, c.s)
		}
	}
}

func TestIndexAppendKeepsSorted(t *testing.T) {
	ix := NewIndex(3, 0)
	ix.Append(0, Pack(5, 1))
	ix.Append(0, Pack(2, 3))
	ix.Append(0, Pack(7, 2))
	ix.Append(0, Pack(2, 1)) // duplicate hub: min dist kept
	s := ix.Labels(0)
	if !s.IsSorted() || len(s) != 3 {
		t.Fatalf("labels = %v", s)
	}
	if d, _ := s.Find(2); d != 1 {
		t.Fatalf("dup hub dist %v", d)
	}
}

func TestIndexEqualAndDiff(t *testing.T) {
	a := NewIndex(2, 0)
	a.Append(0, Pack(0, 0))
	a.Append(1, Pack(0, 2))
	b := a.Clone()
	if !a.Equal(b) || a.Diff(b) != "" {
		t.Fatal("clone not equal")
	}
	b.Append(1, Pack(1, 0))
	if a.Equal(b) || a.Diff(b) == "" {
		t.Fatal("difference not detected")
	}
	// The same counts in another unit are other distances.
	if c := FromSets(a.Clone().sets, 1); a.Equal(c) || a.Diff(c) == "" {
		t.Fatal("difference in unit not detected")
	}
}

// A label is one 8-byte word, and Bytes accounts it at that.
func TestLabelIsEightBytes(t *testing.T) {
	if size := unsafe.Sizeof(Set{}[0]); size != Bytes || Bytes != 8 {
		t.Fatalf("a Set element is %d bytes, Bytes = %d, want 8 and 8", size, Bytes)
	}
}

func TestIndexStats(t *testing.T) {
	ix := NewIndex(4, 0)
	ix.Append(0, Pack(0, 0))
	ix.Append(1, Pack(0, 1))
	ix.Append(1, Pack(1, 0))
	st := ix.Stats()
	if st.TotalLabels != 3 || st.ALS != 0.75 || st.MaxLabels != 2 || st.Bytes != 24 {
		t.Fatalf("stats = %+v", st)
	}
	per := ix.LabelsPerHub()
	if per[0] != 2 || per[1] != 1 {
		t.Fatalf("labels per hub = %v", per)
	}
}

func TestHashDist(t *testing.T) {
	hd := NewHubTable(10)
	hd.Load(set(Pack(1, 5), Pack(4, 2)))
	if d, ok := hd.Get(1); !ok || d != 5 {
		t.Fatalf("Get(1) = %v,%v", d, ok)
	}
	if _, ok := hd.Get(2); ok {
		t.Fatal("phantom entry")
	}
	hd.Add(Pack(1, 7)) // worse: ignored
	if d, _ := hd.Get(1); d != 5 {
		t.Fatalf("Add worsened entry to %v", d)
	}
	hd.Add(Pack(1, 3))
	if d, _ := hd.Get(1); d != 3 {
		t.Fatalf("Add did not improve entry: %v", d)
	}
	hd.Reset()
	if _, ok := hd.Get(1); ok {
		t.Fatal("Reset did not clear")
	}
}

func TestHashDistQueries(t *testing.T) {
	hd := NewHubTable(10)
	hd.Load(set(Pack(1, 5), Pack(4, 2)))
	lv := set(Pack(1, 4), Pack(3, 1), Pack(4, 9))
	if !hd.QueryAgainst(lv, 9) { // 4+5 = 9 ≤ 9
		t.Fatal("witness at exactly δ missed")
	}
	if hd.QueryAgainst(lv, 8) {
		t.Fatal("phantom witness below 9") // 4+5=9 > 8; 9+2=11 > 8
	}
	if hd.QueryAgainstBounded(lv, 100, 1) {
		t.Fatal("bounded(1) must exclude hub 1 and above")
	}
	if !hd.QueryAgainstBounded(lv, 100, 2) {
		t.Fatal("bounded(2) must include hub 1")
	}
}

// TestAbsentHubNeverCounts holds both probes of the one HubTable to its
// absent sentinel: a hub the table does not hold never covers a δ, however
// large — not at 2^32 units and past, where the sum of a label and a
// uint32 sentinel would, nor at 2^64−1 — and never wins a min-probe,
// however small the probing label's distance, also on a run whose hubs
// are all absent. A present hub covers exactly the δ at or above its sum.
func TestAbsentHubNeverCounts(t *testing.T) {
	const n = 16
	root := set(Pack(2, 7), Pack(9, math.MaxUint32))
	for _, c := range []struct {
		name  string
		probe Set
		sum   uint64 // the smallest sum through a present hub
		hub   uint32 // its hub
		ok    bool   // whether the probe shares any hub with root
	}{
		{"every hub absent", set(Pack(0, 0), Pack(3, 0), Pack(8, math.MaxUint32), Pack(15, 0)), 0, 0, false},
		{"absent hubs at 0 around a present one", set(Pack(1, 0), Pack(2, 5), Pack(4, 0)), 12, 2, true},
		{"absent at 0 before a present hub at 2^32−1", set(Pack(3, 0), Pack(9, math.MaxUint32)), 1<<33 - 2, 9, true},
	} {
		cover := NewHubTable(n)
		cover.Load(root)
		for _, delta := range []uint64{0, 11, 12, 1<<32 - 1, 1 << 32, 1<<33 - 2, 1 << 62, 1<<63 - 1, 1 << 63, math.MaxUint64} {
			want := c.ok && c.sum <= delta
			if got := cover.QueryAgainst(c.probe, delta); got != want {
				t.Errorf("%s: QueryAgainst(δ = %d) = %v, want %v", c.name, delta, got, want)
			}
			if got := cover.QueryAgainstBounded(c.probe, delta, n); got != want {
				t.Errorf("%s: QueryAgainstBounded(δ = %d) = %v, want %v", c.name, delta, got, want)
			}
		}

		wantD, wantH := Infinity, uint32(0)
		if c.ok {
			wantD, wantH = float64(c.sum), c.hub
		}
		ix := NewIndex(n, 0)
		ix.SetLabels(0, c.probe)
		cx, err := Compress(Freeze(ix))
		if err != nil {
			t.Fatal(err)
		}
		crun := cx.Run(0)
		probe := NewHubTable(n)
		rs := ScatterRun(probe, root)
		for kernel, answer := range map[string]func() (float64, uint32, bool){
			"Probe":           func() (float64, uint32, bool) { return rs.Probe(c.probe) },
			"ProbeCompressed": func() (float64, uint32, bool) { return rs.ProbeCompressed(crun) },
		} {
			if d, h, ok := answer(); d != wantD || h != wantH || ok != c.ok {
				t.Errorf("%s: %s = (%v, %d, %v), want (%v, %d, %v)", c.name, kernel, d, h, ok, wantD, wantH, c.ok)
			}
		}
		rs.Release()
		if d, h, ok := JoinPackedWith(probe, root, c.probe); d != wantD || h != wantH || ok != c.ok {
			t.Errorf("%s: JoinPackedWith = (%v, %d, %v), want (%v, %d, %v)", c.name, d, h, ok, wantD, wantH, c.ok)
		}
	}
}

// TestHashDistMatchesReference drives one HubTable through Load / Add /
// Reset cycles beside a map and puts both queries to a naive scan of the
// map: whatever an earlier cycle stored must be invisible, a duplicate Add
// keeps the minimum, and a witness at exactly δ counts. Distances are small
// integers, so sums are exact and ties at δ are common.
func TestHashDistMatchesReference(t *testing.T) {
	const n = 96
	rng := rand.New(rand.NewSource(22))
	randomSet := func() Set {
		var s Set
		for hub := uint32(0); hub < n; hub++ {
			if rng.Intn(3) == 0 {
				s = append(s, Pack(hub, uint32(rng.Intn(20))))
			}
		}
		return s
	}
	hd := NewHubTable(n)
	ref := map[uint32]uint32{}
	// best is the smallest sum over the hubs below bound that lv and ref share.
	best := func(lv Set, bound uint32) (uint64, bool) {
		sum, found := uint64(math.MaxUint64), false
		for _, l := range lv {
			if d, ok := ref[Hub(l)]; ok && Hub(l) < bound && uint64(Dist(l)+d) < sum {
				sum, found = uint64(Dist(l)+d), true
			}
		}
		return sum, found
	}
	// Both paths are also called directly, on the entries below the bound.
	below := func(lv Set, bound uint32) Set {
		for i, e := range lv {
			if Hub(e) >= bound {
				return lv[:i]
			}
		}
		return lv
	}
	if !hasVector {
		t.Log("no AVX-512F on this host: the vector kernel is not checked, only the scalar loop")
	}
	for cycle := 0; cycle < 1500; cycle++ {
		switch rng.Intn(3) {
		case 0:
			s := randomSet()
			hd.Load(s)
			ref = map[uint32]uint32{}
			for _, l := range s {
				ref[Hub(l)] = Dist(l)
			}
		case 1:
			for k := rng.Intn(12); k > 0; k-- {
				hub, d := uint32(rng.Intn(n)), uint32(rng.Intn(20))
				hd.Add(Pack(hub, d))
				if old, ok := ref[hub]; !ok || d < old {
					ref[hub] = d
				}
			}
		default:
			hd.Reset()
			ref = map[uint32]uint32{}
		}
		for hub := uint32(0); hub < n; hub++ {
			want, present := ref[hub]
			if d, ok := hd.Get(hub); d != want || ok != present {
				t.Fatalf("cycle %d: Get(%d) = %v,%v, want %v,%v", cycle, hub, d, ok, want, present)
			}
		}
		for q := 0; q < 4; q++ {
			lv, bound := randomSet(), uint32(rng.Intn(n+1))
			for _, b := range []uint32{n, bound} {
				sum, found := best(lv, b)
				// δ = 2^64−1 is where the sentinel shows: an absent slot
				// holding 2^64−1 would witness, since 1 + (2^64−1) wraps.
				for _, delta := range []uint64{uint64(rng.Intn(40)), sum, sum - 1, math.MaxUint64} {
					got, want := hd.QueryAgainstBounded(lv, delta, b), found && sum <= delta
					if got != want || (b == n && hd.QueryAgainst(lv, delta) != want) {
						t.Fatalf("cycle %d: query(%v, δ=%v, bound %d) = %v with table %v: smallest common sum %v (found %v)",
							cycle, lv, delta, b, got, ref, sum, found)
					}
					checkCover(t, hd.slot, below(lv, b), delta, want)
				}
			}
		}
	}
}

var pruneSink bool

// BenchmarkPruneQuery times the construction kernel on the mix the road
// fixture measured: a root with 64 labels, 10⁴ label sets of which two
// entries in three name a hub the root has, no witness — the full scan.
// Its sub-benchmarks are the two run lengths the scoreboard's fixtures
// scan per query, 8 entries on scale-free and 48 on road. Each iteration
// is one pass over all the sets with the scalar loop and one with the
// vector kernel, alternating which goes first; scalar_over_simd is the
// scalar passes' total time over the kernel's, so a value below 1 says the
// scalar loop wins at that length. Without a kernel on the host only
// scalar_ns/entry is reported.
func BenchmarkPruneQuery(b *testing.B) {
	for _, entries := range []int{8, 48} {
		b.Run(fmt.Sprintf("entries=%d", entries), func(b *testing.B) { benchPruneQuery(b, entries) })
	}
}

func benchPruneQuery(b *testing.B, entries int) {
	const hubs, rootHubs, sets = 9216, 64, 10000
	rng := rand.New(rand.NewSource(1))
	perm := rng.Perm(hubs)
	var root Set
	for _, hub := range perm[:rootHubs] {
		root = append(root, Pack(uint32(hub), uint32(1+rng.Intn(100))))
	}
	root.Sort()
	lvs := make([]Set, sets)
	for i := range lvs {
		lv := make(Set, 0, entries)
		for _, k := range rng.Perm(rootHubs)[:entries*2/3] {
			lv = append(lv, Pack(uint32(perm[k]), uint32(1+rng.Intn(100))))
		}
		for seen := map[int]bool{}; len(lv) < entries; {
			if k := rootHubs + rng.Intn(hubs-rootHubs); !seen[k] {
				seen[k] = true
				lv = append(lv, Pack(uint32(perm[k]), uint32(1+rng.Intn(100))))
			}
		}
		lv.Sort()
		lvs[i] = lv
	}
	hd := NewHubTable(hubs)
	hd.Load(root)
	// Both sides are QueryAgainst's body with one path, called the same way.
	scalar := func(lv Set) bool { return coverScalar(hd.slot, lv, 1) }
	vector := func(lv Set) bool {
		hit, done := coverVector(hd.slot, lv, 1)
		return hit || coverScalar(hd.slot, lv[done:], 1)
	}
	if !hasVector {
		b.Log("no vector kernel on this host: timing the scalar loop alone")
	}
	b.ResetTimer()
	var ts, tv time.Duration
	for i := 0; i < b.N; i++ {
		if !hasVector {
			ts += timePass(lvs, scalar)
		} else if i%2 == 0 {
			ts += timePass(lvs, scalar)
			tv += timePass(lvs, vector)
		} else {
			tv += timePass(lvs, vector)
			ts += timePass(lvs, scalar)
		}
	}
	scanned := float64(b.N * sets * entries)
	b.ReportMetric(float64(ts)/scanned, "scalar_ns/entry")
	if hasVector {
		b.ReportMetric(float64(tv)/scanned, "simd_ns/entry")
		b.ReportMetric(float64(ts)/float64(tv), "scalar_over_simd")
	}
	if pruneSink {
		b.Fatal("a witness below every distance")
	}
}

// timePass times one probe over every set. It stays out of line so that
// neither probe is inlined into the loop.
//
//go:noinline
func timePass(lvs []Set, probe func(Set) bool) time.Duration {
	start := time.Now()
	for _, lv := range lvs {
		pruneSink = probe(lv) || pruneSink
	}
	return time.Since(start)
}
