package chl_test

// Golden byte-stability tests for the CHFX container. The builds below
// are fully deterministic (seeded generators + the sequential PLL
// constructor), so the saved files must hash to the same SHA-256 on every
// run, platform, and future PR. The pins guard container version 6 — all
// four files it can hold: {packed, compressed} × {undirected, directed}.
// The compressed pins were re-recorded once, when encoding 4 (one varint
// stream per vertex) replaced encoding 3's indexed blocks; that move is
// guarded twice: the compressed file's permutation section is still the
// bytes it was, and the file decompresses to the packed pin.
//
// If one of these fails, a format byte changed. That is occasionally
// intentional (a deliberate version bump) — then the hash may be updated
// in the same commit that documents the format change — but it must never
// happen as a side effect.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
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
	ix := goldenIndex(t, directed)
	fx, err := ix.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	if err := chl.FrozenLabelsMatch(ix, fx); err != nil {
		t.Fatal(err)
	}
	return fx
}

// goldenCheck saves, checks the version byte and the pinned hash, and
// returns the bytes.
func goldenCheck(t *testing.T, save func(io.Writer) error, wantSHA string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		t.Fatal(err)
	}
	if ver := buf.Bytes()[4]; ver != 6 {
		t.Fatalf("saved as CHFX version %d, want 6", ver)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != wantSHA {
		t.Fatalf("CHFX bytes drifted: sha256 = %s, want %s (%d bytes)", got, wantSHA, buf.Len())
	}
	return buf.Bytes()
}

// sectionSHAs returns the SHA-256 of each section of a CHFX v6 file, in
// file order: the 9-byte header, one uint64 length per section, each
// section 8-aligned. Both encodings hold two sections per half (offsets,
// then labels) after the permutation.
func sectionSHAs(b []byte) []string {
	const headerLen = 9
	nsec := 1 + 2*int(b[6])
	pos := headerLen + 8*nsec
	var out []string
	for i := 0; i < nsec; i++ {
		pos = (pos + 7) &^ 7
		n := int(binary.LittleEndian.Uint64(b[headerLen+8*i:]))
		sum := sha256.Sum256(b[pos : pos+n])
		out = append(out, hex.EncodeToString(sum[:]))
		pos += n
	}
	return out
}

// The packed pins.
const (
	goldenPackedUndirectedSHA = "d6c583630d796f5bf5521cbadfe8372596581b4cfc3bcde99e4a7d4ad9f59335"
	goldenPackedDirectedSHA   = "2ab87d0301cf9e21c706112b56dba82bf5477bac7b79578237593c7b3a14960b"
)

func TestGoldenPackedUndirected(t *testing.T) {
	goldenCheck(t, goldenBuild(t, false).Save, goldenPackedUndirectedSHA)
}

func TestGoldenPackedDirected(t *testing.T) {
	goldenCheck(t, goldenBuild(t, true).Save, goldenPackedDirectedSHA)
}

// goldenCompressed checks a compressed file against its pin, and that the
// pin moved only where the labels are stored: the permutation section
// hashes to permSHA, the same bytes every earlier compressed encoding
// wrote, and the index decompresses to the fixture's packed pin.
func goldenCompressed(t *testing.T, directed bool, sha, permSHA, packedSHA string) {
	cfx, err := goldenBuild(t, directed).Compress()
	if err != nil {
		t.Fatal(err)
	}
	b := goldenCheck(t, cfx.Save, sha)
	if enc, reserved := b[5], b[7]; enc != 4 || reserved != 0 {
		t.Fatalf("saved with encoding %d and byte 7 = %d, want 4 and 0", enc, reserved)
	}
	if got := sectionSHAs(b)[0]; got != permSHA {
		t.Fatalf("permutation section drifted: sha256 %s, want %s", got, permSHA)
	}
	goldenCheck(t, cfx.Decompress().Save, packedSHA)
}

func TestGoldenCompressedUndirected(t *testing.T) {
	goldenCompressed(t, false, "96e85c6f5d3e11a4a19e9fb2061d4ac66f2072647fee2634088558e27ad1001b",
		"aaac8defb9a6e8e2acbd9c4c5f00e247211286c4a85eef56accedd45c2fda88e", goldenPackedUndirectedSHA)
}

func TestGoldenCompressedDirected(t *testing.T) {
	goldenCompressed(t, true, "bc8168594a9dfa728bdf20e3d48babd7b402553717cc145a3aa4646d8775dfab",
		"73a7143c1b0172f920f9f77cfcc3fac6da7d646b304cb87d72ad06057ccf1440", goldenPackedDirectedSHA)
}
