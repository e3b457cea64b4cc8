package graph

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(4, false)
	b.AddEdge(0, 1, 2)
	b.AddEdge(1, 2, 3)
	b.AddEdge(2, 2, 9) // self loop: dropped
	g, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 2 || g.NumArcs() != 4 {
		t.Fatalf("n=%d m=%d arcs=%d", g.NumVertices(), g.NumEdges(), g.NumArcs())
	}
	if g.Degree(1) != 2 || g.Degree(3) != 0 {
		t.Fatalf("degrees: %d %d", g.Degree(1), g.Degree(3))
	}
	if w, ok := g.HasEdge(1, 0); !ok || w != 2 {
		t.Fatalf("HasEdge(1,0) = %v,%v", w, ok)
	}
	if _, ok := g.HasEdge(0, 3); ok {
		t.Fatal("phantom edge 0-3")
	}
}

func TestBuilderRejectsBadInput(t *testing.T) {
	cases := []struct {
		u, v int
		w    float64
	}{
		{-1, 0, 1}, {0, 5, 1}, {0, 1, 0}, {0, 1, -2},
		{0, 1, math.Inf(1)}, {0, 1, math.NaN()},
	}
	for _, c := range cases {
		b := NewBuilder(3, false)
		b.AddEdge(c.u, c.v, c.w)
		if _, err := b.Finish(); err == nil {
			t.Errorf("edge (%d,%d,%v) accepted, want error", c.u, c.v, c.w)
		}
	}
}

func TestParallelEdgeDeduplication(t *testing.T) {
	b := NewBuilder(2, false)
	b.AddEdge(0, 1, 5)
	b.AddEdge(0, 1, 3)
	b.AddEdge(1, 0, 7)
	g := b.MustFinish()
	if g.NumArcs() != 2 {
		t.Fatalf("arcs = %d, want 2 after dedup", g.NumArcs())
	}
	if w, _ := g.HasEdge(0, 1); w != 3 {
		t.Fatalf("kept weight %v, want the minimum 3", w)
	}
}

func TestAdjacencySorted(t *testing.T) {
	g := ErdosRenyi(50, 200, 9, 7)
	for u := 0; u < g.NumVertices(); u++ {
		heads, _ := g.Neighbors(u)
		for i := 1; i < len(heads); i++ {
			if heads[i-1] >= heads[i] {
				t.Fatalf("row %d not strictly sorted at %d", u, i)
			}
		}
	}
}

func TestDirectedTranspose(t *testing.T) {
	b := NewBuilder(3, true)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 2)
	g := b.MustFinish()
	if g.Degree(1) != 1 || g.InDegree(1) != 1 {
		t.Fatalf("deg(1)=%d in(1)=%d", g.Degree(1), g.InDegree(1))
	}
	gt := g.Transpose()
	if w, ok := gt.HasEdge(1, 0); !ok || w != 1 {
		t.Fatalf("transpose missing arc 1→0: %v %v", w, ok)
	}
	if _, ok := gt.HasEdge(0, 1); ok {
		t.Fatal("transpose kept forward arc 0→1")
	}
	if gt.Transpose() == nil || gt.Transpose().NumArcs() != g.NumArcs() {
		t.Fatal("double transpose broken")
	}
}

func TestUndirectedTransposeIsSelf(t *testing.T) {
	g := Path(5, 1)
	if g.Transpose() != g {
		t.Fatal("undirected transpose should return the receiver")
	}
}

func TestPermuteRoundTrip(t *testing.T) {
	g := ErdosRenyi(40, 120, 5, 3)
	perm := make([]int, 40)
	for i := range perm {
		perm[i] = (i*17 + 5) % 40 // a fixed permutation
	}
	pg, newID := g.Permute(perm)
	if pg.NumArcs() != g.NumArcs() {
		t.Fatalf("arcs %d → %d after permute", g.NumArcs(), pg.NumArcs())
	}
	for u := 0; u < g.NumVertices(); u++ {
		heads, wts := g.Neighbors(u)
		for i, h := range heads {
			w, ok := pg.HasEdge(newID[u], newID[h])
			if !ok || w != wts[i] {
				t.Fatalf("edge (%d,%d,w=%v) lost after permute: got %v,%v", u, h, wts[i], w, ok)
			}
		}
	}
}

// sameCSR fails unless a and b hold equal CSR arrays. Weights are positive,
// so == on them is equality bit for bit.
func sameCSR(t *testing.T, what string, a, b *Graph) {
	t.Helper()
	if a.n != b.n || a.directed != b.directed {
		t.Fatalf("%s: n=%d directed=%v, want n=%d directed=%v", what, a.n, a.directed, b.n, b.directed)
	}
	sameArray(t, what+": off", a.off, b.off)
	sameArray(t, what+": adj", a.adj, b.adj)
	sameArray(t, what+": wts", a.wts, b.wts)
	sameArray(t, what+": roff", a.roff, b.roff)
	sameArray(t, what+": radj", a.radj, b.radj)
	sameArray(t, what+": rwts", a.rwts, b.rwts)
	if a.MinWeight() != b.MinWeight() || a.MaxWeight() != b.MaxWeight() {
		t.Fatalf("%s: weights span [%v, %v], want [%v, %v]", what, a.MinWeight(), a.MaxWeight(), b.MinWeight(), b.MaxWeight())
	}
}

func sameArray[T comparable](t *testing.T, what string, got, want []T) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// builderPermute is Permute through a Builder round trip: the reference
// the direct relabeling is held to.
func builderPermute(g *Graph, perm []int) *Graph {
	newID := make([]int, g.n)
	for newV, oldV := range perm {
		newID[oldV] = newV
	}
	b := NewBuilder(g.n, g.directed)
	for newU, oldU := range perm {
		heads, wts := g.Neighbors(oldU)
		for i, h := range heads {
			if newV := newID[h]; g.directed || newU < newV {
				b.AddEdge(newU, newV, wts[i])
			}
		}
	}
	return b.MustFinish()
}

// TestPermuteMatchesBuilder: relabeling the rows in place builds the arrays
// a Builder makes, on a road grid, a scale-free graph with long hub rows and
// a directed graph (whose reverse rows are relabeled too).
func TestPermuteMatchesBuilder(t *testing.T) {
	for name, g := range map[string]*Graph{
		"road":       RoadGrid(24, 24, 1),
		"scale-free": BarabasiAlbert(800, 3, 2),
		"directed":   RandomDirected(300, 1500, 9, 4),
	} {
		perm := rand.New(rand.NewSource(5)).Perm(g.NumVertices())
		pg, _ := g.Permute(perm)
		sameCSR(t, name, pg, builderPermute(g, perm))
	}
}

// TestSplice: a splice is the graph a Builder makes from the edited edge
// set, down to the weight span it reports when its lightest edge goes and a
// heavier one arrives, and it refuses what AddEdge refuses.
func TestSplice(t *testing.T) {
	for _, directed := range []bool{false, true} {
		b := NewBuilder(6, directed)
		for _, e := range [][3]int{{0, 1, 1}, {1, 2, 2}, {2, 3, 3}, {3, 4, 4}, {4, 5, 5}, {5, 0, 6}} {
			b.AddEdge(e[0], e[1], float64(e[2]))
		}
		g := b.MustFinish()
		got, err := g.Splice([]EdgeEdit{
			{U: 1, V: 2, Del: true}, // delete
			{U: 0, V: 1, Del: true}, // delete the lightest edge
			{U: 3, V: 4, W: 9},      // reweight
			{U: 0, V: 3, W: 7},      // insert
			{U: 0, V: 4, Del: true}, // delete an absent edge: no-op
			{U: 2, V: 2, W: 1},      // self loop: ignored
			{U: 5, V: 2, W: 8},      // insert, then
			{U: 5, V: 2, W: 2.5},    // the later edit wins
			{U: 4, V: 5, W: 5},      // set to the same weight
		})
		if err != nil {
			t.Fatal(err)
		}
		want := NewBuilder(6, directed)
		for _, e := range []struct {
			u, v int
			w    float64
		}{{2, 3, 3}, {3, 4, 9}, {4, 5, 5}, {5, 0, 6}, {0, 3, 7}, {5, 2, 2.5}} {
			want.AddEdge(e.u, e.v, e.w)
		}
		sameCSR(t, fmt.Sprintf("directed=%v", directed), got, want.MustFinish())
		if lo, hi := got.MinWeight(), got.MaxWeight(); lo != 2.5 || hi != 9 {
			t.Errorf("directed=%v: spliced weights span [%v, %v]", directed, lo, hi)
		}
		for _, bad := range []EdgeEdit{{U: 0, V: 6, W: 1}, {U: -1, V: 2, Del: true}, {U: 0, V: 2, W: math.Inf(1)}, {U: 0, V: 2, W: math.NaN()}, {U: 0, V: 2}} {
			if _, err := g.Splice([]EdgeEdit{bad}); err == nil {
				t.Errorf("directed=%v: Splice accepted %+v", directed, bad)
			}
		}
	}
}

func TestPermutePanicsOnBadPerm(t *testing.T) {
	g := Path(3, 1)
	for _, perm := range [][]int{{0, 1}, {0, 0, 1}, {0, 1, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Permute(%v) did not panic", perm)
				}
			}()
			g.Permute(perm)
		}()
	}
}

func TestGeneratorShapes(t *testing.T) {
	road := RoadGrid(10, 12, 1)
	if road.NumVertices() != 120 {
		t.Fatalf("road n=%d", road.NumVertices())
	}
	if !IsConnected(road) {
		t.Fatal("road grid must be connected")
	}
	ba := BarabasiAlbert(300, 3, 2)
	if ba.NumVertices() != 300 {
		t.Fatalf("ba n=%d", ba.NumVertices())
	}
	if !IsConnected(ba) {
		t.Fatal("preferential-attachment graph must be connected")
	}
	// Scale-free: max degree far above average.
	maxd, sum := 0, 0
	for v := 0; v < ba.NumVertices(); v++ {
		d := ba.Degree(v)
		sum += d
		if d > maxd {
			maxd = d
		}
	}
	avg := float64(sum) / 300
	if float64(maxd) < 3*avg {
		t.Fatalf("BA max degree %d not scale-free vs avg %.1f", maxd, avg)
	}
	// §7.1.1 weight law: integer weights in [1, √n).
	if w := ba.MaxWeight(); w >= math.Sqrt(300)+1 {
		t.Fatalf("BA max weight %v exceeds √n", w)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := BarabasiAlbert(200, 3, 99)
	b := BarabasiAlbert(200, 3, 99)
	if a.NumArcs() != b.NumArcs() {
		t.Fatal("same seed produced different graphs")
	}
	for u := 0; u < a.NumVertices(); u++ {
		ha, wa := a.Neighbors(u)
		hb, wb := b.Neighbors(u)
		if len(ha) != len(hb) {
			t.Fatalf("vertex %d degree differs", u)
		}
		for i := range ha {
			if ha[i] != hb[i] || wa[i] != wb[i] {
				t.Fatalf("vertex %d arc %d differs", u, i)
			}
		}
	}
	if c := BarabasiAlbert(200, 3, 100); c.NumArcs() == a.NumArcs() {
		// Different seeds may coincide in arc count; compare rows too.
		same := true
		for u := 0; u < a.NumVertices() && same; u++ {
			ha, _ := a.Neighbors(u)
			hc, _ := c.Neighbors(u)
			if len(ha) != len(hc) {
				same = false
				break
			}
			for i := range ha {
				if ha[i] != hc[i] {
					same = false
					break
				}
			}
		}
		if same {
			t.Fatal("different seeds produced identical graphs")
		}
	}
}

func TestFigure1Distances(t *testing.T) {
	g := Figure1()
	// Distances asserted from the worked example in Figures 1b/1c.
	checks := []struct {
		u, v int
		w    float64
	}{
		{0, 1, 3}, {0, 3, 5}, {1, 2, 10}, {1, 4, 14}, {2, 4, 2}, {3, 4, 4},
	}
	for _, c := range checks {
		if w, ok := g.HasEdge(c.u, c.v); !ok || w != c.w {
			t.Fatalf("edge v%d–v%d = %v,%v want %v", c.u+1, c.v+1, w, ok, c.w)
		}
	}
}

func TestComponents(t *testing.T) {
	b := NewBuilder(7, false)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(3, 4, 1)
	g := b.MustFinish() // components {0,1,2}, {3,4}, {5}, {6}
	comp, count := Components(g)
	if count != 4 {
		t.Fatalf("count = %d, want 4", count)
	}
	if comp[0] != comp[2] || comp[3] != comp[4] || comp[5] == comp[6] {
		t.Fatalf("bad component labels %v", comp)
	}
	lc, ids := LargestComponent(g)
	if lc.NumVertices() != 3 || len(ids) != 3 {
		t.Fatalf("largest component has %d vertices, want 3", lc.NumVertices())
	}
}

func TestDirectedWeakComponents(t *testing.T) {
	b := NewBuilder(4, true)
	b.AddEdge(0, 1, 1)
	b.AddEdge(2, 1, 1) // weakly connects 2 despite direction
	g := b.MustFinish()
	_, count := Components(g)
	if count != 2 {
		t.Fatalf("weak components = %d, want 2 ({0,1,2},{3})", count)
	}
}

func TestGenerateByName(t *testing.T) {
	for _, name := range DatasetNames() {
		g, err := GenerateByName(name, 0.1, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.NumVertices() < 16 {
			t.Fatalf("%s: tiny graph %d", name, g.NumVertices())
		}
	}
	if _, err := GenerateByName("nope", 1, 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

// Property: for any generated random graph, CSR round-trips through
// Clone/Permute(identity) unchanged.
func TestCSRInvariantsProperty(t *testing.T) {
	prop := func(seed int64) bool {
		g := ErdosRenyi(30, 60, 7, seed)
		c := g.Clone()
		if c.NumArcs() != g.NumArcs() || c.NumVertices() != g.NumVertices() {
			return false
		}
		id := make([]int, g.NumVertices())
		for i := range id {
			id[i] = i
		}
		p, _ := g.Permute(id)
		for u := 0; u < g.NumVertices(); u++ {
			h1, w1 := g.Neighbors(u)
			h2, w2 := p.Neighbors(u)
			if len(h1) != len(h2) {
				return false
			}
			for i := range h1 {
				if h1[i] != h2[i] || w1[i] != w2[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryBytesAndHistogram(t *testing.T) {
	g := Star(11, 1)
	if g.MemoryBytes() <= 0 {
		t.Fatal("non-positive memory estimate")
	}
	h := g.DegreeHistogram()
	if h[1] != 10 || h[10] != 1 {
		t.Fatalf("star histogram wrong: %v", h)
	}
	if g.TotalWeight() != 20 { // 10 edges × weight 1 × 2 arcs
		t.Fatalf("total weight %v", g.TotalWeight())
	}
}

func TestUnitExp(t *testing.T) {
	for _, tc := range []struct {
		w    float64
		want int
	}{
		{0, 0}, {1, 0}, {3, 0}, {1 << 40, 0}, {1e300, 0},
		{0.5, 1}, {2.25, 2}, {0.375, 3}, {math.Ldexp(3, -60), 60},
		{0.1, 55}, {0.3, 54},
	} {
		if got := UnitExp(tc.w); got != tc.want {
			t.Errorf("UnitExp(%v) = %d, want %d", tc.w, got, tc.want)
		}
	}
}

// CheckExact: the float64 sums of every path stay exact, or the graph is
// refused naming the weight that set the unit.
func TestCheckExact(t *testing.T) {
	path := func(ws ...float64) *Graph {
		b := NewBuilder(len(ws)+1, false)
		for i, w := range ws {
			b.AddEdge(i, i+1, w)
		}
		return b.MustFinish()
	}
	for _, g := range []*Graph{RoadGrid(8, 8, 1), path(2.25, 0.5, 7), path(1<<50, 1), NewBuilder(5, false).MustFinish()} {
		if err := g.CheckExact(); err != nil {
			t.Errorf("%d-vertex graph refused: %v", g.NumVertices(), err)
		}
	}
	for _, tc := range []struct {
		g    *Graph
		name string
	}{
		{path(0.1, 0.2), "weight 0.1"},                           // unit 2^-55: 2·2·0.2·2^55 ≥ 2^53
		{path(1<<51, 1), "maximum weight 2.251799813685248e+15"}, // 2·2·2^51 = 2^53
		{path(3, 0.25, 1<<49), "weight 0.25"},                    // 2·3·2^49·4 > 2^53
	} {
		err := tc.g.CheckExact()
		if err == nil || !strings.Contains(err.Error(), tc.name) {
			t.Errorf("CheckExact = %v, want a refusal naming %q", err, tc.name)
		}
	}
	if k := path(3, 0.25, 0.5).WeightUnitExp(); k != 2 {
		t.Errorf("WeightUnitExp = %d, want 2", k)
	}
}
