package ptree_test

import (
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/metrics"
	"repro/internal/pll"
	"repro/internal/ptree"
	"repro/internal/verify"
)

// TestKernelReproducesSequentialPLL pins the kernel to the reference, counter
// for counter: driven one root at a time with rank queries, the live index as
// the distance-query table and Index.Append as the sink, ptree.Tree is
// sequential PLL — the same labels and counters (explored vertices, queries,
// prunes, relaxations) as pll.Sequential's own (separate) loop, which pops
// its heap while Tree settles a bucket at a time. On the unit grid every
// bucket holds a whole distance class, ties as many as they can be.
func TestKernelReproducesSequentialPLL(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"ba":        graph.BarabasiAlbert(200, 3, 1),
		"grid":      graph.RoadGrid(12, 11, 2),
		"er":        graph.ErdosRenyi(150, 260, 6, 3), // disconnected
		"unit grid": unitGrid(13, 12),
	}
	for name, g := range graphs {
		want, wm := pll.Sequential(g, pll.Options{})

		n := g.NumVertices()
		ix := label.NewIndex(n, g.WeightUnitExp())
		s := ptree.NewScratch(n)
		got := &metrics.Build{}
		for h := 0; h < n; h++ {
			s.HD.Load(ix.Labels(h))
			got.Fold(ptree.Tree(g, h, s, true,
				func(v int, d uint64) bool { return s.HD.QueryAgainst(ix.Labels(v), d) },
				func(v int, d uint32) { ix.Append(v, label.Pack(uint32(h), d)) }))
		}

		if diff := want.Diff(ix); diff != "" {
			t.Fatalf("%s: %s", name, diff)
		}
		for _, c := range []struct {
			counter   string
			got, want int64
		}{
			{"VerticesExplored", got.VerticesExplored, wm.VerticesExplored},
			{"DistanceQueries", got.DistanceQueries, wm.DistanceQueries},
			{"RankPrunes", got.RankPrunes, wm.RankPrunes},
			{"DistPrunes", got.DistPrunes, wm.DistPrunes},
			{"EdgesRelaxed", got.EdgesRelaxed, wm.EdgesRelaxed},
			{"LabelsGenerated", got.LabelsGenerated, wm.LabelsGenerated},
		} {
			if c.got != c.want {
				t.Errorf("%s: kernel %s = %d, pll.Sequential %d", name, c.counter, c.got, c.want)
			}
		}
	}
}

// unitGrid is a rows×cols lattice whose edges all weigh 1.
func unitGrid(rows, cols int) *graph.Graph {
	b := graph.NewBuilder(rows*cols, false)
	for v := 0; v < rows*cols; v++ {
		if v%cols+1 < cols {
			b.AddEdge(v, v+1, 1)
		}
		if v+cols < rows*cols {
			b.AddEdge(v, v+cols, 1)
		}
	}
	g, err := b.Finish()
	if err != nil {
		panic(err)
	}
	return g
}

// TestRedundant covers the cases the cleaning query's three ancestors agreed
// on in result but not in form (one scanned to the first satisfying hub and
// then compared its rank, two stopped the scan at h).
func TestRedundant(t *testing.T) {
	set := func(ls ...uint64) label.Set { return ls }
	const h = 5
	for _, c := range []struct {
		name    string
		lv, lh  label.Set
		delta   uint32
		want    bool
		entries int64
	}{
		{"witness above h",
			set(label.Pack(2, 3), label.Pack(h, 7)), set(label.Pack(2, 4), label.Pack(h, 0)), 7, true, 1},
		{"witness above h, behind non-common and too-long hubs",
			set(label.Pack(0, 9), label.Pack(1, 1), label.Pack(3, 2), label.Pack(h, 6)),
			set(label.Pack(0, 9), label.Pack(2, 1), label.Pack(3, 4), label.Pack(h, 0)), 6, true, 4},
		{"equal-distance tie counts (≤, not <)",
			set(label.Pack(4, 1), label.Pack(h, 3)), set(label.Pack(4, 2), label.Pack(h, 0)), 3, true, 1},
		{"common hub above h, a hair too long",
			set(label.Pack(4, 2), label.Pack(h, 6)), set(label.Pack(4, 5), label.Pack(h, 0)), 6, false, 1},
		{"witness only at h: a label is no witness against itself",
			set(label.Pack(h, 3)), set(label.Pack(h, 0)), 3, false, 0},
		{"witness only below h",
			set(label.Pack(h, 3), label.Pack(8, 1)), set(label.Pack(h, 0), label.Pack(8, 1)), 3, false, 0},
		{"the scan stops at h in either set",
			set(label.Pack(1, 1), label.Pack(9, 1)), set(label.Pack(6, 1), label.Pack(9, 1)), 3, false, 0},
		{"empty lv", nil, set(label.Pack(1, 1)), 3, false, 0},
		{"empty lh", set(label.Pack(1, 1)), nil, 3, false, 0},
		{"both empty", nil, nil, 3, false, 0},
	} {
		got, entries := ptree.Redundant(c.lv, c.lh, h, c.delta)
		if got != c.want || entries != c.entries {
			t.Errorf("%s: Redundant = %v after %d entries, want %v after %d", c.name, got, entries, c.want, c.entries)
		}
	}
}

// TestCleanStride checks the pass's ownership arithmetic: with (first,
// stride) a node decides exactly its own vertices and leaves the rest nil,
// the strides together decide what (0, 1) decides, and sets is not written.
func TestCleanStride(t *testing.T) {
	g := graph.RoadGrid(9, 9, 4)
	sets, _ := lccI(g, 4)
	before := label.FromSets(sets, g.WeightUnitExp()).Clone()

	whole := make([]label.Set, len(sets))
	wst := ptree.Clean(whole, sets, 3, 0, 1)
	const q = 4
	var sum ptree.Stats
	for r := 0; r < q; r++ {
		part := make([]label.Set, len(sets))
		st := ptree.Clean(part, sets, 2, r, q)
		sum.Add(st)
		for v := range part {
			if v%q != r {
				if part[v] != nil {
					t.Fatalf("stride %d/%d decided vertex %d", r, q, v)
				}
				continue
			}
			if !slices.Equal(part[v], whole[v]) {
				t.Fatalf("vertex %d cleaned by stride %d/%d: %v, by the whole pass: %v", v, r, q, part[v], whole[v])
			}
		}
	}
	if sum != wst {
		t.Fatalf("strides counted %+v, the whole pass %+v", sum, wst)
	}
	if diff := before.Diff(label.FromSets(sets, g.WeightUnitExp())); diff != "" {
		t.Fatalf("Clean wrote its input: %s", diff)
	}
	want, _ := pll.Sequential(g, pll.Options{})
	if diff := want.Diff(label.FromSets(whole, g.WeightUnitExp())); diff != "" {
		t.Fatalf("cleaned LCC-I output is not the CHL: %s", diff)
	}
}

// TestCleanAppends checks that survivors extend dst[v] rather than replace
// it: a prefix already there is kept, untouched, ahead of them.
func TestCleanAppends(t *testing.T) {
	g := graph.RoadGrid(9, 9, 4)
	sets, _ := lccI(g, 2)
	fresh := make([]label.Set, len(sets))
	ptree.Clean(fresh, sets, 2, 0, 1)

	prefix := label.Set{label.Pack(0, 1)}
	dst := make([]label.Set, len(sets))
	for v := range dst {
		dst[v] = prefix.Clone()
	}
	ptree.Clean(dst, sets, 2, 0, 1)
	for v := range dst {
		if want := append(prefix.Clone(), fresh[v]...); !slices.Equal(dst[v], want) {
			t.Fatalf("vertex %d: %v, want %v", v, dst[v], want)
		}
	}
}

// lccI is LCC-I, the labeling the cleaning pass is for: every root's tree,
// rank-queried, grown concurrently by Forest into one locked table beside
// an empty global table. It returns the sorted sets and the trees' stats.
func lccI(g *graph.Graph, workers int) ([]label.Set, ptree.Stats) {
	n := g.NumVertices()
	roots := make([]int, n)
	for h := range roots {
		roots[h] = h
	}
	local := label.NewConcurrentStore(n)
	st := ptree.Forest(g, roots, ptree.NewScratches(workers, n), true, make([]label.Set, n), local)
	return ptree.DrainSorted(local, workers), st
}

// setsOf returns the label sets of ix, indexed by vertex.
func setsOf(ix *label.Index) []label.Set {
	s := make([]label.Set, ix.NumVertices())
	for v := range s {
		s[v] = ix.Labels(v)
	}
	return s
}

// TestLCCIRespectsR: before cleaning, the racy labeling already respects R
// and covers every pair (Claim 1), and cleaning it gives the CHL.
func TestLCCIRespectsR(t *testing.T) {
	g := graph.ErdosRenyi(45, 100, 5, 9)
	dirty, st := lccI(g, 4)
	ix := label.FromSets(dirty, g.WeightUnitExp())
	if err := verify.Cover(g, ix, 0); err != nil {
		t.Fatal(err)
	}
	if err := verify.RespectsR(g, ix, 0); err != nil {
		t.Fatal(err)
	}
	if st.RankPruned == 0 && st.DistPruned == 0 {
		t.Fatal("no pruning recorded at all")
	}
	clean := make([]label.Set, len(dirty))
	ptree.Clean(clean, dirty, 4, 0, 1)
	if err := verify.IsCHL(g, label.FromSets(clean, g.WeightUnitExp())); err != nil {
		t.Fatal(err)
	}
}

// TestCleanRemovesInjectedRedundancy takes the CHL and injects labels a
// labeling respecting R could hold (true distances, hub not the path
// maximum): Clean must delete exactly those and restore the CHL.
func TestCleanRemovesInjectedRedundancy(t *testing.T) {
	g := graph.RoadGrid(6, 6, 3)
	chl, _ := pll.Sequential(g, pll.Options{})
	dirty := chl.Clone()
	injected := 0
	n := g.NumVertices()
	for v := 0; v < n; v += 3 {
		for h := 1; h < n; h += 7 {
			if h == v {
				continue
			}
			if _, ok := dirty.Labels(v).Find(uint32(h)); ok {
				continue
			}
			d := chl.Query(v, h) // exact: the CHL covers every pair
			if d == label.Infinity {
				continue
			}
			dirty.Append(v, label.Pack(uint32(h), uint32(d))) // integer weights: the unit is 1
			injected++
		}
	}
	if injected == 0 {
		t.Fatal("test vacuous: nothing injected")
	}
	clean := make([]label.Set, n)
	st := ptree.Clean(clean, setsOf(dirty), 4, 0, 1)
	if st.Cleaned != int64(injected) {
		t.Fatalf("cleaned %d, injected %d", st.Cleaned, injected)
	}
	if diff := chl.Diff(label.FromSets(clean, g.WeightUnitExp())); diff != "" {
		t.Fatalf("cleaning did not restore the CHL: %s", diff)
	}
	if st.CleanQueries == 0 {
		t.Fatal("no cleaning queries recorded")
	}
}

// TestCleanKeepsCHLIntact: the CHL is minimal, so Clean deletes nothing.
func TestCleanKeepsCHLIntact(t *testing.T) {
	g := graph.BarabasiAlbert(80, 3, 2)
	chl, _ := pll.Sequential(g, pll.Options{})
	clean := make([]label.Set, g.NumVertices())
	if st := ptree.Clean(clean, setsOf(chl), 4, 0, 1); st.Cleaned != 0 {
		t.Fatalf("Clean deleted %d labels from a minimal labeling", st.Cleaned)
	}
	if diff := chl.Diff(label.FromSets(clean, g.WeightUnitExp())); diff != "" {
		t.Fatal(diff)
	}
}

func TestParallelFor(t *testing.T) {
	for _, c := range []struct{ workers, n int }{{1, 10}, {4, 100}, {8, 3}, {4, 1}, {4, 0}} {
		hits := make([]atomic.Int32, c.n)
		ptree.ParallelFor(c.workers, c.n, func(w, i int) {
			if w < 0 || w >= c.workers {
				t.Errorf("workers=%d n=%d: worker index %d", c.workers, c.n, w)
			}
			hits[i].Add(1)
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d n=%d: item %d ran %d times", c.workers, c.n, i, got)
			}
		}
	}
}

func TestParallelRange(t *testing.T) {
	for _, c := range []struct{ workers, n int }{{1, 10}, {4, 100}, {2, 65}, {8, 3}, {4, 0}} {
		hits := make([]atomic.Int32, c.n)
		ptree.ParallelRange(c.workers, c.n, func(w, lo, hi int) {
			if w < 0 || w >= c.workers || lo >= hi {
				t.Errorf("workers=%d n=%d: worker %d range [%d,%d)", c.workers, c.n, w, lo, hi)
			}
			for i := lo; i < hi; i++ {
				hits[i].Add(1)
			}
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d n=%d: item %d ran %d times", c.workers, c.n, i, got)
			}
		}
	}
}
