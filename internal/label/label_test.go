package label

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func set(pairs ...L) Set { return Set(pairs) }

func TestSetSortFindClone(t *testing.T) {
	s := set(L{5, 2}, L{1, 3}, L{9, 0.5})
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
		m := map[uint32]float64{}
		for i := 0; i < n; i++ {
			m[uint32(rng.Intn(30))] = float64(rng.Intn(50)) / 2
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
				if la.Hub == lb.Hub && la.Dist+lb.Dist < want {
					want = la.Dist + lb.Dist
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
	good := set(L{1, 2}, L{3, 0.5}, L{4, 0})
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
		{set(L{1, -1}), 0},         // negative distance
		{set(L{2, 5}), 2},          // self label nonzero
	}
	for i, c := range bad {
		if err := c.s.Validate(c.owner, 10); err == nil {
			t.Errorf("case %d accepted: %v", i, c.s)
		}
	}
}

func TestIndexAppendKeepsSorted(t *testing.T) {
	ix := NewIndex(3)
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
	a := NewIndex(2)
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
}

func TestIndexStats(t *testing.T) {
	ix := NewIndex(4)
	ix.Append(0, L{0, 0})
	ix.Append(1, L{0, 1})
	ix.Append(1, L{1, 0})
	st := ix.Stats()
	if st.TotalLabels != 3 || st.ALS != 0.75 || st.MaxLabels != 2 || st.Bytes != 36 {
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
	if hd.QueryAgainst(lv, 8.5) {
		t.Fatal("phantom witness below 9") // 4+5=9 > 8.5; 9+2=11 > 8.5
	}
	if hd.QueryAgainstBounded(lv, 100, 1) {
		t.Fatal("bounded(1) must exclude hub 1 and above")
	}
	if !hd.QueryAgainstBounded(lv, 100, 2) {
		t.Fatal("bounded(2) must include hub 1")
	}
}

func TestHashDistVersionWrap(t *testing.T) {
	hd := NewHashDist(4)
	hd.current = ^uint32(0) - 1
	hd.Load(set(L{2, 1}))
	hd.Reset() // wraps to 0 → explicit rewind path
	if _, ok := hd.Get(2); ok {
		t.Fatal("stale entry visible after version wrap")
	}
	hd.Add(2, 4)
	if d, ok := hd.Get(2); !ok || d != 4 {
		t.Fatalf("entry lost after wrap: %v %v", d, ok)
	}
}
