package main

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	chl "repro"
)

// chl must succeed on its own defaults: -algo is left to the library,
// which picks per directedness, and the output names the builder that
// ran. (The flag used to default to gll, which refuses directed input.)
// The -out file is the serving file: OpenFlat answers from it exactly
// what the build answers.
func TestDefaultAlgorithmPerDirectedness(t *testing.T) {
	for _, tc := range []struct {
		dataset, want string
		directed      bool
	}{
		{"CAL", "build: PLaNT:", false},
		{"WND", "build: seqPLL-directed:", true},
	} {
		out := filepath.Join(t.TempDir(), "ix.flat")
		var stdout bytes.Buffer
		if err := run([]string{"-dataset", tc.dataset, "-scale", "0.05", "-out", out}, &stdout); err != nil {
			t.Fatalf("chl -dataset %s: %v\n%s", tc.dataset, err, &stdout)
		}
		if !strings.Contains(stdout.String(), tc.want) {
			t.Errorf("chl -dataset %s printed no %q line:\n%s", tc.dataset, tc.want, &stdout)
		}
		fx, err := chl.OpenFlat(out)
		if err != nil {
			t.Fatal(err)
		}
		defer fx.Close()
		if fx.Directed() != tc.directed {
			t.Errorf("dataset %s: saved index directed = %v", tc.dataset, fx.Directed())
		}
		g, err := chl.GenerateDataset(tc.dataset, 0.05, 1)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := chl.Build(g, chl.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 500; i++ {
			u, v := rng.Intn(ix.NumVertices()), rng.Intn(ix.NumVertices())
			gd, gh, gok := fx.QueryHub(u, v)
			wd, wh, wok := ix.QueryHub(u, v)
			if gd != wd || gok != wok || (wok && gh != wh) {
				t.Fatalf("dataset %s: QueryHub(%d,%d) = (%v,%d,%v) from the -out file, the build says (%v,%d,%v)", tc.dataset, u, v, gd, gh, gok, wd, wh, wok)
			}
		}
	}
	// An explicit choice that cannot run is still an error, not a silent swap.
	if err := run([]string{"-dataset", "WND", "-scale", "0.05", "-algo", "gll"}, &bytes.Buffer{}); err == nil {
		t.Error("chl -algo gll on a directed graph succeeded")
	}
}
