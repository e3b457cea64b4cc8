package label

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func set(pairs ...L) Set { return Set(pairs) }

func TestSetSortFindClone(t *testing.T) {
	s := set(L{5, 2}, L{1, 3}, L{9, 1})
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
	c[0].Dist = 99
	if s[0].Dist == 99 {
		t.Fatal("Clone aliases storage")
	}
}

func TestMerge(t *testing.T) {
	a := set(L{1, 5}, L{3, 2}, L{7, 1})
	b := set(L{2, 4}, L{3, 9}, L{8, 3})
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

func TestQueryMerge(t *testing.T) {
	a := set(L{0, 10}, L{2, 1}, L{5, 7})
	b := set(L{1, 1}, L{2, 2}, L{5, 1})
	d, hub, ok := QueryMerge(a, b)
	if !ok || d != 3 || hub != 2 {
		t.Fatalf("QueryMerge = %v,%d,%v want 3,2,true", d, hub, ok)
	}
	// Tie: highest-ranked (smallest id) witness wins.
	a2 := set(L{1, 2}, L{4, 1})
	b2 := set(L{1, 2}, L{4, 3})
	d2, hub2, _ := QueryMerge(a2, b2)
	if d2 != 4 || hub2 != 1 {
		t.Fatalf("tie broke to hub %d at %v, want hub 1 at 4", hub2, d2)
	}
	if _, _, ok := QueryMerge(set(L{1, 1}), set(L{2, 1})); ok {
		t.Fatal("disjoint sets reported a hub")
	}
	if d, _, _ := QueryMerge(nil, nil); d != Infinity {
		t.Fatal("empty query not Infinity")
	}
}

// Property: QueryMerge equals a brute-force intersection minimum.
func TestQueryMergeProperty(t *testing.T) {
	mk := func(seed int64) Set {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20)
		m := map[uint32]uint32{}
		for i := 0; i < n; i++ {
			m[uint32(rng.Intn(30))] = uint32(rng.Intn(50))
		}
		s := make(Set, 0, len(m))
		for h, d := range m {
			s = append(s, L{h, d})
		}
		sort.Slice(s, func(i, j int) bool { return s[i].Hub < s[j].Hub })
		return s
	}
	prop := func(sa, sb int64) bool {
		a, b := mk(sa), mk(sb)
		want := Infinity
		for _, la := range a {
			for _, lb := range b {
				if d := float64(la.Dist + lb.Dist); la.Hub == lb.Hub && d < want {
					want = d
				}
			}
		}
		got, _, _ := QueryMerge(a, b)
		return got == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestValidate(t *testing.T) {
	good := set(L{1, 2}, L{3, 1}, L{4, 0})
	if err := good.Validate(4, 10); err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		s     Set
		owner int
	}{
		{set(L{3, 1}, L{1, 1}), 0}, // unsorted
		{set(L{1, 1}, L{1, 2}), 0}, // duplicate hub
		{set(L{12, 1}), 0},         // out of range
		{set(L{2, 5}), 2},          // self label nonzero
	}
	for i, c := range bad {
		if err := c.s.Validate(c.owner, 10); err == nil {
			t.Errorf("case %d accepted: %v", i, c.s)
		}
	}
}

func TestIndexAppendKeepsSorted(t *testing.T) {
	ix := NewIndex(3, 0)
	ix.Append(0, L{5, 1})
	ix.Append(0, L{2, 3})
	ix.Append(0, L{7, 2})
	ix.Append(0, L{2, 1}) // duplicate hub: min dist kept
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
	a.Append(0, L{0, 0})
	a.Append(1, L{0, 2})
	b := a.Clone()
	if !a.Equal(b) || a.Diff(b) != "" {
		t.Fatal("clone not equal")
	}
	b.Append(1, L{1, 0})
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
	if unsafe.Sizeof(L{}) != 8 || Bytes != 8 {
		t.Fatalf("unsafe.Sizeof(L{}) = %d, Bytes = %d, want 8 and 8", unsafe.Sizeof(L{}), Bytes)
	}
}

func TestIndexStats(t *testing.T) {
	ix := NewIndex(4, 0)
	ix.Append(0, L{0, 0})
	ix.Append(1, L{0, 1})
	ix.Append(1, L{1, 0})
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
	hd := NewHashDist(10)
	hd.Load(set(L{1, 5}, L{4, 2}))
	if d, ok := hd.Get(1); !ok || d != 5 {
		t.Fatalf("Get(1) = %v,%v", d, ok)
	}
	if _, ok := hd.Get(2); ok {
		t.Fatal("phantom entry")
	}
	hd.Add(1, 7) // worse: ignored
	if d, _ := hd.Get(1); d != 5 {
		t.Fatalf("Add worsened entry to %v", d)
	}
	hd.Add(1, 3)
	if d, _ := hd.Get(1); d != 3 {
		t.Fatalf("Add did not improve entry: %v", d)
	}
	hd.Reset()
	if _, ok := hd.Get(1); ok {
		t.Fatal("Reset did not clear")
	}
}

func TestHashDistQueries(t *testing.T) {
	hd := NewHashDist(10)
	hd.Load(set(L{1, 5}, L{4, 2}))
	lv := set(L{1, 4}, L{3, 1}, L{4, 9})
	if !hd.QueryAgainst(lv, 9) { // 4+5 = 9 ≤ 9
		t.Fatal("witness at exactly δ missed")
	}
	if hd.QueryAgainst(lv, 8) {
		t.Fatal("phantom witness below 9") // 4+5=9 > 8; 9+2=11 > 8
	}
	// An absent hub never covers, whatever δ: not at 2^32 units and past,
	// where the sum of a label and a uint32 sentinel would, nor at 2^64−1.
	hd.Load(set(L{1, 5}))
	for _, delta := range []uint64{1<<32 - 1, 1 << 32, 1 << 33, 1 << 62, 1<<63 - 1, 1 << 63, math.MaxUint64} {
		if hd.QueryAgainst(set(L{3, 0}, L{4, math.MaxUint32}), delta) || hd.QueryAgainstBounded(set(L{3, 0}), delta, 10) {
			t.Fatalf("an absent hub covered δ = %d", delta)
		}
		if !hd.QueryAgainst(set(L{1, math.MaxUint32}), delta) == (delta >= 1<<32+4) {
			t.Fatalf("a present hub at 2^32+4 units: cover of δ = %d wrong", delta)
		}
	}
	if hd.QueryAgainstBounded(lv, 100, 1) {
		t.Fatal("bounded(1) must exclude hub 1 and above")
	}
	if !hd.QueryAgainstBounded(lv, 100, 2) {
		t.Fatal("bounded(2) must include hub 1")
	}
}

// TestHashDistMatchesReference drives one HashDist through Load / Add /
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
				s = append(s, L{hub, uint32(rng.Intn(20))})
			}
		}
		return s
	}
	hd := NewHashDist(n)
	ref := map[uint32]uint32{}
	// best is the smallest sum over the hubs below bound that lv and ref share.
	best := func(lv Set, bound uint32) (uint64, bool) {
		sum, found := uint64(math.MaxUint64), false
		for _, l := range lv {
			if d, ok := ref[l.Hub]; ok && l.Hub < bound && uint64(l.Dist+d) < sum {
				sum, found = uint64(l.Dist+d), true
			}
		}
		return sum, found
	}
	for cycle := 0; cycle < 1500; cycle++ {
		switch rng.Intn(3) {
		case 0:
			s := randomSet()
			hd.Load(s)
			ref = map[uint32]uint32{}
			for _, l := range s {
				ref[l.Hub] = l.Dist
			}
		case 1:
			for k := rng.Intn(12); k > 0; k-- {
				hub, d := uint32(rng.Intn(n)), uint32(rng.Intn(20))
				hd.Add(hub, d)
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
				}
			}
		}
	}
}

var pruneSink bool

// BenchmarkPruneQuery times the construction kernel on the mix the road
// fixture measured (ISSUE 22): a root with 64 labels, 10⁴ label sets of 50
// entries of which two in three name a hub the root has, no witness — the
// full scan. One op is one pass over all the sets (8 MB: they leave L2).
func BenchmarkPruneQuery(b *testing.B) {
	const (
		hubs, rootHubs = 9216, 64
		sets, entries  = 10000, 50
	)
	rng := rand.New(rand.NewSource(1))
	perm := rng.Perm(hubs)
	var root Set
	for _, hub := range perm[:rootHubs] {
		root = append(root, L{uint32(hub), uint32(1 + rng.Intn(100))})
	}
	root.Sort()
	lvs := make([]Set, sets)
	for i := range lvs {
		lv := make(Set, 0, entries)
		for _, k := range rng.Perm(rootHubs)[:entries*2/3] {
			lv = append(lv, L{uint32(perm[k]), uint32(1 + rng.Intn(100))})
		}
		for seen := map[int]bool{}; len(lv) < entries; {
			if k := rootHubs + rng.Intn(hubs-rootHubs); !seen[k] {
				seen[k] = true
				lv = append(lv, L{uint32(perm[k]), uint32(1 + rng.Intn(100))})
			}
		}
		lv.Sort()
		lvs[i] = lv
	}
	hd := NewHashDist(hubs)
	hd.Load(root)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, lv := range lvs {
			pruneSink = hd.QueryAgainstBounded(lv, 1, hubs) || pruneSink
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sets*entries), "ns/entry")
	if pruneSink {
		b.Fatal("a witness below every distance")
	}
}
