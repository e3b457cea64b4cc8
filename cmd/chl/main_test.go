package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
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
		{"WND", "build: PLaNT-directed:", true},
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

// chl reads -graph as chlquery and chlrouter do: DIMACS for a .gr file, an
// edge list otherwise, so every graph the serving tools accept also builds.
func TestGraphFileByExtension(t *testing.T) {
	g := chl.GenerateRoadGrid(6, 6, 1)
	dir := t.TempDir()
	for name, write := range map[string]func(*bytes.Buffer) error{
		"g.gr":  func(b *bytes.Buffer) error { return chl.WriteDIMACS(b, g) },
		"g.txt": func(b *bytes.Buffer) error { return chl.WriteEdgeList(b, g) },
	} {
		var b bytes.Buffer
		if err := write(&b); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout bytes.Buffer
		if err := run([]string{"-graph", path}, &stdout); err != nil {
			t.Fatalf("chl -graph %s: %v\n%s", name, err, &stdout)
		}
		if want := fmt.Sprintf("graph: n=%d m=%d", g.NumVertices(), g.NumEdges()); !strings.Contains(stdout.String(), want) {
			t.Errorf("chl -graph %s printed no %q line:\n%s", name, want, &stdout)
		}
	}
}
