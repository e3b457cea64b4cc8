//go:build !race

package chl

// Not built under -race: there sync.Pool drops a share of what is Put
// back on purpose, so pooled scratch is re-allocated and an allocation
// count says nothing about the code.

import (
	"math/rand"
	"testing"

	"repro/internal/delta"
)

// overlayOver builds the overlay of ops on fx the way Server.Update does.
func overlayOver(t testing.TB, fx *FlatIndex, g *Graph, ops []EdgeOp) *delta.Overlay {
	t.Helper()
	red, err := delta.Reduce(g, ops)
	if err != nil {
		t.Fatal(err)
	}
	return delta.NewOverlay(red, ops, 1)
}

// randomPatch draws a valid batch over g: deletions and reweights of
// existing edges, insertions of absent ones, no edge touched twice.
func randomPatch(g *Graph, rng *rand.Rand, count int) []EdgeOp {
	n := g.NumVertices()
	taken := map[[2]int]bool{}
	var ops []EdgeOp
	for len(ops) < count {
		u, v := rng.Intn(n), rng.Intn(n)
		op := EdgeOp{Kind: EdgeOpAdd, U: u, V: v, W: float64(1 + rng.Intn(9))}
		if heads, _ := g.Neighbors(u); len(ops)%3 != 2 && len(heads) > 0 {
			v = int(heads[rng.Intn(len(heads))])
			op = EdgeOp{Kind: EdgeOpDel, U: u, V: v}
			if len(ops)%3 == 1 {
				op = EdgeOp{Kind: EdgeOpSet, U: u, V: v, W: float64(1 + rng.Intn(9))}
			}
		}
		_, has := g.HasEdge(u, v)
		if u == v || has == (op.Kind == EdgeOpAdd) || taken[[2]int{u, v}] || taken[[2]int{v, u}] {
			continue
		}
		taken[[2]int{u, v}] = true
		ops = append(ops, op)
	}
	return ops
}

// unfallenPairs finds, by asking, count pairs eng's overlay answers
// without its exact fallback.
func unfallenPairs(eng *BatchEngine, count int) []QueryPair {
	var pairs []QueryPair
	n := eng.fx.NumVertices()
	rng := rand.New(rand.NewSource(3))
	for len(pairs) < count {
		u, v := rng.Intn(n), rng.Intn(n)
		before := eng.Overlay().Stat().Fallback
		eng.QueryHub(u, v)
		if eng.Overlay().Stat().Fallback == before {
			pairs = append(pairs, QueryPair{U: u, V: v})
		}
	}
	return pairs
}

// TestCorrectedQueryDoesNotAllocate pins the single-pair allocation
// budget: a frozen FlatIndex.QueryHub or BatchEngine.QueryHub, and a
// BatchEngine.QueryHub the overlay answers without its exact fallback,
// take every working array from pooled scratch, on a fixed-width index
// (zero-copy runs, the hash join on a pooled table) and a compressed one
// (runs that stream-merge inside label.Join).
func TestCorrectedQueryDoesNotAllocate(t *testing.T) {
	g := GenerateRoadGrid(24, 24, 1)
	ix, err := Build(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	packed, err := ix.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	compressed, err := packed.Compress()
	if err != nil {
		t.Fatal(err)
	}
	ops := randomPatch(g, rand.New(rand.NewSource(2)), 8)
	rng := rand.New(rand.NewSource(3))
	random := make([]QueryPair, 64)
	for i := range random {
		random[i] = QueryPair{U: rng.Intn(g.NumVertices()), V: rng.Intn(g.NumVertices())}
	}
	for name, fx := range map[string]*FlatIndex{"packed": packed, "compressed": compressed} {
		corrected := NewBatchEngineFlat(fx)
		corrected.SetOverlay(overlayOver(t, fx, g, ops))
		for _, c := range []struct {
			query string
			hub   func(u, v int) (float64, int, bool)
			pairs []QueryPair
		}{
			{"frozen FlatIndex.QueryHub", fx.QueryHub, random},
			{"frozen BatchEngine.QueryHub", NewBatchEngineFlat(fx).QueryHub, random},
			{"corrected BatchEngine.QueryHub", corrected.QueryHub, unfallenPairs(corrected, 64)},
		} {
			i := 0
			allocs := testing.AllocsPerRun(500, func() {
				p := c.pairs[i%len(c.pairs)]
				c.hub(p.U, p.V)
				i++
			})
			if allocs != 0 {
				t.Errorf("%s: %s allocates %v times per query, want 0", name, c.query, allocs)
			}
		}
	}
}

// TestBatchIntoReusesScratch pins /batch's scratch budget: a worker takes
// its hash-join probe buffer (8 bytes per vertex) and its by-source chains
// from the index's pools and returns them, so a steady-state single-worker
// BatchInto — here a two-pair batch, where a fresh scratch per call would
// dwarf the work, a batch that repeats its sources, and a batch under an
// overlay that corrects every pair without falling back — allocates
// nothing on either storage format.
func TestBatchIntoReusesScratch(t *testing.T) {
	g := GenerateRoadGrid(24, 24, 1)
	ix, err := Build(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	packed, err := ix.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	compressed, err := packed.Compress()
	if err != nil {
		t.Fatal(err)
	}
	pairs := []QueryPair{{U: 3, V: 500}, {U: 17, V: 17}}
	dst := make([]float64, len(pairs))
	for name, fx := range map[string]*FlatIndex{"packed": packed, "compressed": compressed} {
		eng := NewBatchEngineFlat(fx)
		eng.workers = 1
		eng.BatchInto(dst, pairs) // fills the pool
		if allocs := testing.AllocsPerRun(200, func() { eng.BatchInto(dst, pairs) }); allocs != 0 {
			t.Errorf("%s: BatchInto allocates %v times per call, want 0", name, allocs)
		}
		if dst[0] != ix.Query(3, 500) || dst[1] != 0 {
			t.Errorf("%s: BatchInto = %v, want [%v 0]", name, dst, ix.Query(3, 500))
		}

		repeated := make([]QueryPair, 64)
		for i := range repeated {
			repeated[i] = QueryPair{U: []int{3, 17, 40}[i%3], V: 7 * i}
		}
		rdst := make([]float64, len(repeated))
		eng.BatchInto(rdst, repeated)
		if allocs := testing.AllocsPerRun(200, func() { eng.BatchInto(rdst, repeated) }); allocs != 0 {
			t.Errorf("%s: BatchInto over repeated sources allocates %v times per call, want 0", name, allocs)
		}
		for i, p := range repeated {
			if want := ix.Query(p.U, p.V); rdst[i] != want {
				t.Fatalf("%s: repeated-source pair %d (%d,%d) = %v, want %v", name, i, p.U, p.V, rdst[i], want)
			}
		}

		eng.SetOverlay(overlayOver(t, fx, g, randomPatch(g, rand.New(rand.NewSource(2)), 8)))
		corrected := unfallenPairs(eng, 64)
		cdst := make([]float64, len(corrected))
		eng.BatchInto(cdst, corrected)
		if allocs := testing.AllocsPerRun(200, func() { eng.BatchInto(cdst, corrected) }); allocs != 0 {
			t.Errorf("%s: BatchInto under an overlay allocates %v times per call, want 0", name, allocs)
		}
		for i, p := range corrected {
			if want, _, _ := eng.QueryHub(p.U, p.V); cdst[i] != want {
				t.Fatalf("%s: corrected pair %d (%d,%d) = %v, QueryHub says %v", name, i, p.U, p.V, cdst[i], want)
			}
		}
	}
}
