package chl

// White-box tests for the corrected-query path: the seed table against
// the pairwise joins it replaced, over every index format and
// directedness. The allocation budget of a corrected query is pinned in
// overlay_alloc_test.go, which the race detector leaves out.

import (
	"fmt"
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
	fwd, bwd, _ := fx.patchRuns(red.Verts())
	ov, err := delta.NewOverlay(red, ops, 1, fx.unitExp(), fwd, bwd)
	if err != nil {
		t.Fatal(err)
	}
	return ov
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

// TestSeedsMatchPairwiseQueries is the property the seed table rests on:
// for random graphs × {packed, compressed} × {undirected, directed} ×
// {whole index, shard slice with half its runs empty}, Overlay.Seeds is
// == the loop of per-patch-vertex FlatIndex.Query calls it replaced —
// for endpoints inside and outside P, for u == v, and for patch vertices
// no hub connects to the endpoint.
func TestSeedsMatchPairwiseQueries(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, directed := range []bool{false, true} {
			// Sparse enough that some vertices cannot reach some patch vertices.
			g := GenerateRandom(90, 110, 9, seed)
			if directed {
				g = GenerateRandomDirected(90, 200, 9, seed)
			}
			ix, err := Build(g, Options{Algorithm: AlgoPLaNT})
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
			rng := rand.New(rand.NewSource(seed * 31))
			ops := randomPatch(g, rng, 9)
			even := func(v int) bool { return v%2 == 0 }
			for _, tc := range []struct {
				name string
				fx   *FlatIndex
			}{
				{"packed", packed},
				{"compressed", compressed},
				{"packed slice", packed.slice(even)},
				{"compressed slice", compressed.slice(even)},
			} {
				t.Run(fmt.Sprintf("seed=%d/directed=%v/%s", seed, directed, tc.name), func(t *testing.T) {
					fx := tc.fx
					ov := overlayOver(t, fx, g, ops)
					verts := ov.Verts()
					du, dv := make([]float64, len(verts)), make([]float64, len(verts))
					pairs := [][2]int{{verts[0], verts[1]}, {verts[2], 5}, {5, verts[2]}, {7, 7}, {verts[3], verts[3]}}
					for i := 0; i < 200; i++ {
						pairs = append(pairs, [2]int{rng.Intn(90), rng.Intn(90)})
					}
					unreachable := 0
					for _, pr := range pairs {
						u, v := pr[0], pr[1]
						ov.Seeds(du, dv, fx.fwd.RunInto(nil, u), fx.bwd.RunInto(nil, v), u, v)
						for i, p := range verts {
							wantU, wantV := fx.Query(u, p), fx.Query(p, v)
							if p == u {
								wantU = 0
							}
							if p == v {
								wantV = 0
							}
							if du[i] != wantU || dv[i] != wantV {
								t.Fatalf("(%d,%d) patch vertex %d: seeds (%v,%v), pairwise queries (%v,%v)",
									u, v, p, du[i], dv[i], wantU, wantV)
							}
							if wantU == Infinity {
								unreachable++
							}
						}
					}
					if unreachable == 0 {
						t.Fatal("fixture never had a patch vertex out of an endpoint's reach")
					}
				})
			}
		}
	}
}
