package chl_test

// Golden byte-stability tests for the CHFX container. The builds below
// are fully deterministic (seeded generators + the sequential PLL
// constructor), so the saved files must hash to the same SHA-256 on every
// run, platform, and future PR. The pins guard container version 5 — all
// four files it can hold: {packed, compressed} × {undirected, directed} —
// and were re-pinned once, when v5 replaced the v2/v3/v4 framings (the
// test names keep the suffix of the framing each fixture used to be
// written in).
//
// If one of these fails, a format byte changed. That is occasionally
// intentional (a deliberate version bump) — then the hash may be updated
// in the same commit that documents the format change — but it must never
// happen as a side effect.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"

	chl "repro"
)

// goldenIndex builds the deterministic fixtures the hashes below were
// computed from.
func goldenIndex(t *testing.T, directed bool) *chl.Index {
	t.Helper()
	g := chl.GenerateScaleFree(200, 3, 6)
	if directed {
		g = chl.GenerateRandomDirected(180, 900, 9, 6)
	}
	ix, err := chl.Build(g, chl.Options{Algorithm: chl.AlgoSeqPLL, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func goldenBuild(t *testing.T, directed bool) *chl.FlatIndex {
	t.Helper()
	fx, err := goldenIndex(t, directed).Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

func goldenCheck(t *testing.T, save func(io.Writer) error, wantSHA string) {
	t.Helper()
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		t.Fatal(err)
	}
	if ver := buf.Bytes()[4]; ver != 5 {
		t.Fatalf("saved as CHFX version %d, want 5", ver)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != wantSHA {
		t.Fatalf("CHFX bytes drifted: sha256 = %s, want %s (%d bytes)", got, wantSHA, buf.Len())
	}
}

// The packed undirected file (what CHFX v2 framed).
func TestGoldenUndirectedV2BytesStable(t *testing.T) {
	goldenCheck(t, goldenBuild(t, false).Save,
		"924de873f94b2d787d7fcbcd33756bff2fc959acdc791b5ded7b6a81604cf631")
}

// The packed directed file (what CHFX v3 framed).
func TestGoldenDirectedV3BytesStable(t *testing.T) {
	goldenCheck(t, goldenBuild(t, true).Save,
		"1c32a40b2a1205948616851c7b0e8ba7a75257ab90f244f3fe89f5d8989f457b")
}

// The compressed files (what CHFX v4 framed).
func TestGoldenCompressedV4BytesStable(t *testing.T) {
	for _, tc := range []struct {
		name     string
		directed bool
		sha      string
	}{
		{"undirected", false, "fbc8f52263d69d8b806cf1a02f6ab010e2c80b21476aebf8869e7a720d4cd7f8"},
		{"directed", true, "2995c1d0b94d9bbb68f75b846d73a9ae895976918916e5ec472c901aa885ebe3"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfx, err := goldenBuild(t, tc.directed).Compress()
			if err != nil {
				t.Fatal(err)
			}
			goldenCheck(t, cfx.Save, tc.sha)
		})
	}
}
