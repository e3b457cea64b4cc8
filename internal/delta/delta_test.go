package delta

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/pll"
	"repro/internal/sssp"
)

func TestParsePatchLog(t *testing.T) {
	ops, err := ParsePatchLog([]byte("# patch\nadd 1 2 3.5\n\ndel 4 5 # trailing comment\nset 0 9 7\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := []Op{{OpAdd, 1, 2, 3.5}, {OpDel, 4, 5, 0}, {OpSet, 0, 9, 7}}
	if len(ops) != len(want) {
		t.Fatalf("got %d ops, want %d", len(ops), len(want))
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("op %d: got %+v want %+v", i, ops[i], want[i])
		}
	}
	// Round trip through the canonical rendering.
	again, err := ParsePatchLog(FormatPatchLog(ops))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if again[i] != want[i] {
			t.Fatalf("round trip op %d: got %+v want %+v", i, again[i], want[i])
		}
	}
}

func TestParsePatchLogRejects(t *testing.T) {
	for _, bad := range []string{
		"frob 1 2",     // unknown op
		"add 1 2",      // missing weight
		"add 1 2 3 4",  // extra field
		"del 1",        // missing vertex
		"add -1 2 3",   // negative id
		"add 1 1 3",    // self loop
		"add 1 2 0",    // zero weight
		"add 1 2 -3",   // negative weight
		"add 1 2 +Inf", // non-finite weight
		"add 1 2 NaN",  // NaN weight
		"set one 2 3",  // non-numeric id
	} {
		if _, err := ParsePatchLog([]byte(bad)); err == nil {
			t.Errorf("ParsePatchLog(%q): want error, got none", bad)
		}
	}
}

func line(t *testing.T, s string) []Op {
	t.Helper()
	ops, err := ParsePatchLog([]byte(s))
	if err != nil {
		t.Fatal(err)
	}
	return ops
}

// pathGraph builds 0-1-2-...-(n-1) with unit weights.
func pathGraph(n int, directed bool) *graph.Graph {
	b := graph.NewBuilder(n, directed)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1, 1)
	}
	return b.MustFinish()
}

func TestReduceValidation(t *testing.T) {
	g := pathGraph(4, false)
	for _, bad := range []string{
		"add 0 1 5",            // exists
		"del 0 2",              // absent
		"set 0 3 2",            // absent
		"add 0 9 1",            // out of range
		"add 0 3 1\nadd 0 3 2", // second add sees the first
		"del 0 1\ndel 0 1",     // second del sees the first
	} {
		if _, err := Reduce(g, line(t, bad)); err == nil {
			t.Errorf("Reduce(%q): want error, got none", bad)
		}
	}
	// Ops built in code skip the parser; Reduce holds them to its rule.
	for _, op := range []Op{{OpAdd, 0, 2, math.Inf(1)}, {OpSet, 0, 1, math.NaN()}, {OpSet, 1, 2, 0}} {
		if _, err := Reduce(g, []Op{op}); err == nil || !strings.Contains(err.Error(), "want positive finite") {
			t.Errorf("Reduce(%+v): error %v, want a positive-finite refusal", op, err)
		}
	}
	// Ops judged against accumulated state, and cancelling ops vanish.
	red, err := Reduce(g, line(t, "del 0 1\nadd 0 1 1"))
	if err != nil {
		t.Fatal(err)
	}
	if !red.Empty() {
		t.Fatalf("del+add of the same edge/weight should reduce to empty, got %d verts", len(red.Verts()))
	}
	red, err = Reduce(g, line(t, "set 1 2 9\nset 1 2 1"))
	if err != nil {
		t.Fatal(err)
	}
	if !red.Empty() {
		t.Fatal("set back to the original weight should reduce to empty")
	}
	// A reweight is one removal plus one insertion.
	red, err = Reduce(g, line(t, "set 1 2 9"))
	if err != nil {
		t.Fatal(err)
	}
	if red.nRem != 1 || red.nIns != 1 {
		t.Fatalf("reweight: got %d removals %d inserts, want 1 and 1", red.nRem, red.nIns)
	}
}

func TestLogHashDeterministic(t *testing.T) {
	ops := line(t, "add 1 2 3\ndel 3 4")
	if LogHash(ops) != LogHash(ops) {
		t.Fatal("LogHash not deterministic")
	}
	if LogHash(ops) == LogHash(ops[:1]) {
		t.Fatal("different logs should hash differently")
	}
	if LogHash(nil) == 0 || LogHash(ops)&^(1<<53-1) != 0 {
		t.Fatal("LogHash must be 53-bit and never zero")
	}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "patch.log")
	if ops, err := readJournal(path); err != nil || ops != nil {
		t.Fatalf("missing journal: got %v, %v", ops, err)
	}
	first := line(t, "add 1 2 3")
	second := line(t, "del 1 2\nset 4 5 6")
	if err := appendJournal(path, first); err != nil {
		t.Fatal(err)
	}
	if err := appendJournal(path, second); err != nil {
		t.Fatal(err)
	}
	got, err := readJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]Op{}, first...), second...)
	if len(got) != len(want) {
		t.Fatalf("replayed %d ops, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("op %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	if err := truncateJournal(path); err != nil {
		t.Fatal(err)
	}
	if ops, err := readJournal(path); err != nil || len(ops) != 0 {
		t.Fatalf("truncated journal: got %v, %v", ops, err)
	}
}

// oracle memoizes exact Dijkstra rows on one graph.
type oracle struct {
	g    *graph.Graph
	rows map[int][]float64
}

func newOracle(g *graph.Graph) *oracle { return &oracle{g: g, rows: map[int][]float64{}} }

func (o *oracle) row(u int) []float64 {
	r, ok := o.rows[u]
	if !ok {
		r = sssp.Dijkstra(o.g, u)
		o.rows[u] = r
	}
	return r
}

func (o *oracle) dist(u, v int) float64 { return o.row(u)[v] }

// frozenLabels is a canonical hub labeling of one graph, packed: what a
// serving tier holds frozen while the overlay absorbs edge updates.
// Rank order is vertex order, so a hub rank is a vertex id. bwd is fwd
// itself on undirected graphs.
type frozenLabels struct{ fwd, bwd *label.FlatIndex }

func freezeLabels(g *graph.Graph) frozenLabels {
	if g.Directed() {
		dx, _ := pll.SequentialDirected(g, pll.Options{})
		return frozenLabels{label.Freeze(dx.Forward), label.Freeze(dx.Backward)}
	}
	ix, _ := pll.Sequential(g, pll.Options{})
	f := label.Freeze(ix)
	return frozenLabels{f, f}
}

// overlay builds the overlay of ops over these labels.
func (fl frozenLabels) overlay(t testing.TB, g *graph.Graph, ops []Op, epoch uint64) *Overlay {
	t.Helper()
	red, err := Reduce(g, ops)
	if err != nil {
		t.Fatal(err)
	}
	return NewOverlay(red, ops, epoch)
}

// query asks the overlay for one pair the way a serving tier does: the
// frozen join's distance, corrected, with the join's witness hub.
func (fl frozenLabels) query(ov *Overlay, u, v int) (float64, uint32, bool) {
	d0, hub, _ := label.Join(nil, fl.fwd, fl.bwd, u, v)
	dist, frozen := ov.Query(d0, u, v)
	return dist, hub, frozen
}

// randomOps derives a valid mixed batch (dels and reweights of existing
// edges, adds of absent ones) from g, deterministically per seed.
func randomOps(g *graph.Graph, seed int64, nDel, nSet, nAdd int) []Op {
	rng := rand.New(rand.NewSource(seed))
	n := g.NumVertices()
	type edge struct {
		u, v int
	}
	var edges []edge
	for u := 0; u < n; u++ {
		heads, _ := g.Neighbors(u)
		for _, h := range heads {
			v := int(h)
			if g.Directed() || u < v {
				edges = append(edges, edge{u, v})
			}
		}
	}
	used := map[edge]bool{}
	var ops []Op
	for len(ops) < nDel+nSet && len(used) < len(edges) {
		e := edges[rng.Intn(len(edges))]
		if used[e] {
			continue
		}
		used[e] = true
		if len(ops) < nDel {
			ops = append(ops, Op{Kind: OpDel, U: e.u, V: e.v})
		} else {
			ops = append(ops, Op{Kind: OpSet, U: e.u, V: e.v, W: float64(1 + rng.Intn(9))})
		}
	}
	for added := 0; added < nAdd; {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		e := edge{u, v}
		if !g.Directed() && u > v {
			e = edge{v, u}
		}
		if used[e] {
			continue
		}
		if _, has := g.HasEdge(u, v); has {
			continue
		}
		used[e] = true
		ops = append(ops, Op{Kind: OpAdd, U: e.u, V: e.v, W: float64(1 + rng.Intn(9))})
		added++
	}
	return ops
}

// TestOverlayExact is the package's core correctness check: over random
// graphs and random mixed patches, a query through the overlay — seeded
// correction or, when it declines, the fallback — must agree exactly
// with Dijkstra on the patched graph for every vertex pair, and every
// query must be counted under exactly one path.
func TestOverlayExact(t *testing.T) {
	for _, tc := range []struct {
		name     string
		directed bool
	}{{"undirected", false}, {"directed", true}} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				var g *graph.Graph
				if tc.directed {
					g = graph.RandomDirected(60, 240, 9, seed)
				} else {
					g = graph.ErdosRenyi(60, 140, 9, seed)
				}
				ops := randomOps(g, seed*101, 3, 3, 4)
				frozen := freezeLabels(g)
				ov := frozen.overlay(t, g, ops, 1)
				pg := ov.Materialize()
				want := newOracle(pg)
				n := g.NumVertices()
				for u := 0; u < n; u++ {
					for v := 0; v < n; v++ {
						got, _, _ := frozen.query(ov, u, v)
						if w := want.dist(u, v); got != w {
							t.Fatalf("seed %d d'(%d,%d): got %v want %v", seed, u, v, got, w)
						}
					}
				}
				st := ov.Stat()
				if st.Frozen+st.Corrected+st.Fallback != int64(n*n) {
					t.Fatalf("seed %d: %d queries counted as %d frozen + %d corrected + %d fallback",
						seed, n*n, st.Frozen, st.Corrected, st.Fallback)
				}
				if st.Frozen == 0 || st.Corrected == 0 {
					t.Fatalf("seed %d: %+v — the seeded correction never ran", seed, st)
				}
				t.Logf("seed %d: %d frozen, %d corrected, %d fell back", seed, st.Frozen, st.Corrected, st.Fallback)
			}
		})
	}
}

// TestOverlayFrozenFlag: when the overlay says the frozen answer
// survives, the frozen distance must equal the patched one and the hub
// it returns must witness it — that flag licenses serving the frozen
// witness hub.
func TestOverlayFrozenFlag(t *testing.T) {
	g := graph.ErdosRenyi(50, 120, 9, 7)
	ops := randomOps(g, 77, 2, 2, 3)
	frozen := freezeLabels(g)
	ov := frozen.overlay(t, g, ops, 1)
	pg := ov.Materialize()
	base, want := newOracle(g), newOracle(pg)
	for u := 0; u < 50; u++ {
		for v := 0; v < 50; v++ {
			got, hub, frozenOK := frozen.query(ov, u, v)
			if !frozenOK {
				continue
			}
			if got != base.dist(u, v) || got != want.dist(u, v) {
				t.Fatalf("(%d,%d): frozen flag set but corrected=%v frozen=%v patched=%v",
					u, v, got, base.dist(u, v), want.dist(u, v))
			}
			if h := int(hub); u != v && want.dist(u, h)+want.dist(h, v) != got {
				t.Fatalf("(%d,%d): frozen witness %d is off the patched shortest paths: %v + %v != %v",
					u, v, h, want.dist(u, h), want.dist(h, v), got)
			}
		}
	}
}

func TestShortestPathOnPatched(t *testing.T) {
	g := graph.ErdosRenyi(40, 90, 9, 3)
	ops := randomOps(g, 5, 2, 2, 3)
	ov := freezeLabels(g).overlay(t, g, ops, 1)
	pg := ov.Materialize()
	want := newOracle(pg)
	for u := 0; u < 40; u += 3 {
		for v := 0; v < 40; v += 7 {
			path, d := ov.ShortestPath(u, v)
			w := want.dist(u, v)
			if w >= graph.Infinity {
				if path != nil {
					t.Fatalf("(%d,%d): unreachable but got path %v", u, v, path)
				}
				continue
			}
			if d != w {
				t.Fatalf("(%d,%d): path length %v, want %v", u, v, d, w)
			}
			if path[0] != u || path[len(path)-1] != v {
				t.Fatalf("(%d,%d): endpoints wrong: %v", u, v, path)
			}
			var sum float64
			for i := 0; i+1 < len(path); i++ {
				ew, has := pg.HasEdge(path[i], path[i+1])
				if !has {
					t.Fatalf("(%d,%d): leg (%d,%d) is not a patched edge", u, v, path[i], path[i+1])
				}
				sum += ew
			}
			if sum != w {
				t.Fatalf("(%d,%d): legs sum to %v, want %v", u, v, sum, w)
			}
		}
	}
}

func TestMaterializeMatchesHandApplied(t *testing.T) {
	g := pathGraph(5, false)
	pg, err := ApplyPatch(g, line(t, "del 1 2\nadd 0 4 2\nset 3 4 5"))
	if err != nil {
		t.Fatal(err)
	}
	if _, has := pg.HasEdge(1, 2); has {
		t.Fatal("deleted edge survived")
	}
	if w, has := pg.HasEdge(0, 4); !has || w != 2 {
		t.Fatalf("inserted edge: got (%v,%v)", w, has)
	}
	if w, has := pg.HasEdge(4, 3); !has || w != 5 {
		t.Fatalf("reweighted edge: got (%v,%v)", w, has)
	}
	if w, has := pg.HasEdge(0, 1); !has || w != 1 {
		t.Fatalf("untouched edge: got (%v,%v)", w, has)
	}
}

// patchedSink keeps BenchmarkApplyPatch's result live.
var patchedSink *graph.Graph

// BenchmarkApplyPatch is one writer batch of the scoreboard's live
// workload: 4 ops (two deletions, a reweight, an insertion) on the 96×96
// road grid under a random renumbering.
func BenchmarkApplyPatch(b *testing.B) {
	road := graph.RoadGrid(96, 96, 1)
	g, _ := road.Permute(rand.New(rand.NewSource(1)).Perm(road.NumVertices()))
	ops := randomOps(g, 1, 2, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if patchedSink, err = ApplyPatch(g, ops); err != nil {
			b.Fatal(err)
		}
	}
}

func TestFormatParseFuzzSeedCorpus(t *testing.T) {
	// The fuzz seeds must stay parseable — they are the regression corpus.
	for _, seed := range fuzzSeeds {
		if _, err := ParsePatchLog([]byte(seed)); err != nil {
			// Seeds are allowed to be invalid (the fuzzer explores the
			// error paths too) — just never panic.
			continue
		}
	}
	if !bytes.Equal(FormatPatchLog(nil), []byte{}) {
		t.Fatal("empty log must format to empty bytes")
	}
}

// TestOverlayAccessorsAndApplyPatch pins the overlay's identity surface
// — Epoch, Hash, Ops, Stat — against the log it was built from, and
// ApplyPatch (the compaction/oracle entry point) against a hand-built
// Reduce + Materialize, including its validation error path.
func TestOverlayAccessorsAndApplyPatch(t *testing.T) {
	g := graph.ErdosRenyi(40, 90, 9, 3)
	ops := randomOps(g, 9, 2, 1, 2)
	red, err := Reduce(g, ops)
	if err != nil {
		t.Fatal(err)
	}
	ov := freezeLabels(g).overlay(t, g, ops, 7)
	if ov.Epoch() != 7 {
		t.Fatalf("Epoch() = %d, want 7", ov.Epoch())
	}
	if ov.Hash() != LogHash(ops) {
		t.Fatalf("Hash() = %d, want LogHash(ops) = %d", ov.Hash(), LogHash(ops))
	}
	if got := ov.Ops(); len(got) != len(ops) || got[0] != ops[0] {
		t.Fatalf("Ops() = %v, want the accumulated log %v", got, ops)
	}
	st := ov.Stat()
	if st.Epoch != 7 || st.Ops != len(ops) || st.LogHash != ov.Hash() {
		t.Fatalf("Stat() = %+v disagrees with the overlay", st)
	}
	if st.Vertices != len(ov.Verts()) || st.Vertices == 0 {
		t.Fatalf("Stat().Vertices = %d, Verts() has %d", st.Vertices, len(ov.Verts()))
	}
	if st.Removals == 0 || st.Inserts == 0 {
		t.Fatalf("Stat() = %+v: randomOps produced removals and inserts", st)
	}

	patched, err := ApplyPatch(g, ops)
	if err != nil {
		t.Fatal(err)
	}
	want := red.Materialize()
	if patched.NumVertices() != want.NumVertices() {
		t.Fatalf("ApplyPatch n = %d, Materialize n = %d", patched.NumVertices(), want.NumVertices())
	}
	wo, po := newOracle(want), newOracle(patched)
	for u := 0; u < patched.NumVertices(); u += 7 {
		for v := 0; v < patched.NumVertices(); v += 5 {
			if po.dist(u, v) != wo.dist(u, v) {
				t.Fatalf("ApplyPatch d(%d,%d) = %v, Materialize says %v", u, v, po.dist(u, v), wo.dist(u, v))
			}
		}
	}
	if _, err := ApplyPatch(g, []Op{{Kind: OpAdd, U: 0, V: 1, W: -3}}); err == nil {
		t.Fatal("ApplyPatch accepted a negative weight")
	}
}

// TestJournalErrorPaths: an unwritable journal path fails appendJournal
// loudly, an unreadable one fails readJournal, a corrupt one fails
// parsing, and truncateJournal treats a missing file as already empty.
func TestJournalErrorPaths(t *testing.T) {
	dir := t.TempDir()
	if err := appendJournal(dir, line(t, "add 1 2 3")); err == nil {
		t.Fatal("appendJournal to a directory path succeeded")
	}
	if _, err := readJournal(dir); err == nil {
		t.Fatal("readJournal on a directory path succeeded")
	}
	bad := filepath.Join(dir, "corrupt.log")
	if err := os.WriteFile(bad, []byte("add 1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readJournal(bad); err == nil {
		t.Fatal("readJournal parsed a truncated add line")
	}
	if err := truncateJournal(filepath.Join(dir, "never-written.log")); err != nil {
		t.Fatalf("truncateJournal on a missing file: %v", err)
	}
}

// Reduce refuses a patch whose graph chl.Build would refuse, so /compact
// can always rebuild — and only such a patch. graph.Finish refuses every
// base Build would, so a base never needs mending.
func TestReduceRefusesUnbuildablePatch(t *testing.T) {
	path := func(ws ...float64) *graph.Graph {
		b := graph.NewBuilder(len(ws)+1, false)
		for i, w := range ws {
			b.AddEdge(i, i+1, w)
		}
		return b.MustFinish()
	}
	base := path(1, 2, 3)
	if _, err := Reduce(base, []Op{{Kind: OpAdd, U: 0, V: 3, W: 0.1}}); err == nil || !strings.Contains(err.Error(), "weight 0.1") {
		t.Fatalf("adding a 0.1 edge: %v, want a refusal naming the weight", err)
	}
	if _, err := Reduce(base, []Op{{Kind: OpSet, U: 1, V: 2, W: 1 << 52}}); err == nil || !strings.Contains(err.Error(), "weight 4.503599627370496e+15") {
		t.Fatalf("reweighting to 2^52: %v, want a refusal naming the weight", err)
	}
	// A unit of 2^-31 would count the base's 3 as 3·2^31 units.
	if _, err := Reduce(base, []Op{{Kind: OpAdd, U: 0, V: 3, W: 0x1p-31}}); err == nil || !strings.Contains(err.Error(), "weight 3 ") {
		t.Fatalf("adding a 2^-31 edge: %v, want a refusal naming weight 3", err)
	}
	if _, err := Reduce(base, []Op{{Kind: OpAdd, U: 0, V: 3, W: 0.25}}); err != nil {
		t.Fatalf("adding a 0.25 edge: %v", err)
	}
}
