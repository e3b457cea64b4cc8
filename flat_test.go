package chl_test

// Tests for the flat packed label store and the parallel batch serving
// engine: freeze parity against the slice-based index, the binary round
// trip, and the save-once/serve-many flow of cmd/chlquery.

import (
	"bytes"
	"math/rand"
	"testing"

	chl "repro"
)

func buildFrozen(t *testing.T, g *chl.Graph) (*chl.Index, *chl.FlatIndex) {
	t.Helper()
	ix, err := chl.Build(g, chl.Options{Algorithm: chl.AlgoGLL, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fx, err := ix.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return ix, fx
}

// The acceptance check of the flat store: 1k random pairs answered
// identically by FlatIndex.Query and Index.Query on a generated graph.
func TestFlatQueryParity(t *testing.T) {
	for name, g := range map[string]*chl.Graph{
		"scalefree": chl.GenerateScaleFree(600, 3, 1),
		"road":      chl.GenerateRoadGrid(24, 24, 2),
		"sparse":    chl.GenerateRandom(300, 200, 9, 3), // disconnected pairs exercise Infinity
	} {
		t.Run(name, func(t *testing.T) {
			ix, fx := buildFrozen(t, g)
			n := g.NumVertices()
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 1000; i++ {
				u, v := rng.Intn(n), rng.Intn(n)
				if got, want := fx.Query(u, v), ix.Query(u, v); got != want {
					t.Fatalf("flat query(%d,%d) = %v, slice index says %v", u, v, got, want)
				}
				fd, fh, fok := fx.QueryHub(u, v)
				d, h, ok := ix.QueryHub(u, v)
				if fd != d || fok != ok || (ok && fh != h) {
					t.Fatalf("flat QueryHub(%d,%d) = (%v,%d,%v), want (%v,%d,%v)", u, v, fd, fh, fok, d, h, ok)
				}
			}
		})
	}
}

func TestFlatSaveLoadAnswersIdentically(t *testing.T) {
	g := chl.GenerateScaleFree(400, 3, 4)
	ix, fx := buildFrozen(t, g)
	path := t.TempDir() + "/ix.flat"
	if err := fx.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := chl.LoadFlatFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.TotalLabels() != fx.TotalLabels() || back.NumVertices() != fx.NumVertices() {
		t.Fatalf("shape changed: %d/%d labels, %d/%d vertices",
			back.TotalLabels(), fx.TotalLabels(), back.NumVertices(), fx.NumVertices())
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 1000; i++ {
		u, v := rng.Intn(400), rng.Intn(400)
		if back.Query(u, v) != ix.Query(u, v) {
			t.Fatalf("reloaded flat index disagrees with the build at (%d,%d)", u, v)
		}
	}
}

func TestLoadFlatRejectsGarbage(t *testing.T) {
	g := chl.GenerateRoadGrid(5, 5, 1)
	_, fx := buildFrozen(t, g)
	var buf bytes.Buffer
	if err := fx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	cases := map[string][]byte{
		"empty":       nil,
		"wrong magic": append([]byte("CHIX"), full[4:]...), // a retired magic
		"bad version": append([]byte("CHFX\xff"), full[5:]...),
		"truncated":   full[:len(full)-9],
	}
	for name, c := range cases {
		if _, err := chl.LoadFlat(bytes.NewReader(c)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestBatchEngineMatchesSequential(t *testing.T) {
	g := chl.GenerateScaleFree(500, 3, 9)
	ix, err := chl.Build(g, chl.Options{Algorithm: chl.AlgoGLL})
	if err != nil {
		t.Fatal(err)
	}
	fx, err := ix.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	eng := chl.NewBatchEngineFlat(fx)
	rng := rand.New(rand.NewSource(13))
	pairs := make([]chl.QueryPair, 5000)
	for i := range pairs {
		pairs[i] = chl.QueryPair{U: rng.Intn(500), V: rng.Intn(500)}
	}
	dists := eng.Batch(pairs)
	for i, p := range pairs {
		if dists[i] != ix.Query(p.U, p.V) {
			t.Fatalf("batch query %d (%d,%d) = %v, want %v", i, p.U, p.V, dists[i], ix.Query(p.U, p.V))
		}
	}
	// BatchInto reuses the caller's buffer.
	dst := make([]float64, len(pairs))
	eng.BatchInto(dst, pairs)
	for i := range dst {
		if dst[i] != dists[i] {
			t.Fatalf("BatchInto diverges at %d", i)
		}
	}
	// Empty batch is fine.
	if out := eng.Batch(nil); len(out) != 0 {
		t.Fatal("empty batch returned distances")
	}
}
