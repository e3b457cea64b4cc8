package chl_test

// Golden byte-stability tests for the CHFX container. The builds below
// are fully deterministic (seeded generators + the sequential PLL
// constructor), so the saved files must hash to the same SHA-256 on every
// run, platform, and future PR. The pins guard container version 6 — all
// four files it can hold: {packed, compressed} × {undirected, directed} —
// and were re-pinned once when v5 replaced the v2/v3/v4 framings (the
// test names keep the suffix of the framing each fixture used to be
// written in), and once when v6 made every stored distance a unit count.
// That last move is guarded twice: every file's labels equal the
// builder's (FrozenLabelsMatch), and the compressed files' sections are
// v5's bytes except for one retired flag bit per block header.
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
	"reflect"
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
// section 8-aligned.
func sectionSHAs(b []byte) []string {
	const headerLen = 9
	nsec := 1 + 3*int(b[6]) // perm, then vertOff, heads, data per half
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

// The packed undirected file (what CHFX v2 framed).
func TestGoldenUndirectedV2BytesStable(t *testing.T) {
	goldenCheck(t, goldenBuild(t, false).Save,
		"d6c583630d796f5bf5521cbadfe8372596581b4cfc3bcde99e4a7d4ad9f59335")
}

// The packed directed file (what CHFX v3 framed).
func TestGoldenDirectedV3BytesStable(t *testing.T) {
	goldenCheck(t, goldenBuild(t, true).Save,
		"2ab87d0301cf9e21c706112b56dba82bf5477bac7b79578237593c7b3a14960b")
}

// The compressed files (what CHFX v4 framed). v5 wrote the same sections
// — the integer distance plane v6 keeps as its only one — except that
// each block header set a flag bit v6 retired; v5Sections are the hashes
// of v5's sections with that bit cleared, so only the file header may
// differ.
func TestGoldenCompressedV4BytesStable(t *testing.T) {
	for _, tc := range []struct {
		name       string
		directed   bool
		sha        string
		v5Sections []string
	}{
		{"undirected", false, "202a7e0643818a6110321c930c722941741642464f3d909612600fff952e4b83", []string{
			"aaac8defb9a6e8e2acbd9c4c5f00e247211286c4a85eef56accedd45c2fda88e",
			"609d147252e49ce40c2e252775d8fad4734d04e9ca356770029f09377138018c",
			"6fda809f28d1e1cad50e1bff301ad50d49efdc33e6b560977c302804327ddb68",
			"bd61afa607e8bf2ce8c86e243e535d48e42213a3472b15709ee5dc43cffd9c39",
		}},
		{"directed", true, "75d3e53a37c7fafecedc82e2bfdd798055b6600e919b2a88dea5c1c872391dea", []string{
			"73a7143c1b0172f920f9f77cfcc3fac6da7d646b304cb87d72ad06057ccf1440",
			"fd6e3139bd6ce91c2694ab831345fc1c14ce60f04889789b5b8d98a42dfa258d",
			"c2a93edd6a193b95dc312634bddee9df38a4f80c6863260c08a40f267a6c9b9a",
			"fc0a01f73c91d6273546c7b90ef777e2886f7cacd7eecb33bf73f953360286d7",
			"fd6e3139bd6ce91c2694ab831345fc1c14ce60f04889789b5b8d98a42dfa258d",
			"f2afbea1013cceb442c525a4744bbbf1914cb2180f6d831196b30aa1fd25c3a3",
			"199333e5504c18cd2e6dc085a148a3f849dca05f7daa12395b38455ed778fa7e",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfx, err := goldenBuild(t, tc.directed).Compress()
			if err != nil {
				t.Fatal(err)
			}
			got := sectionSHAs(goldenCheck(t, cfx.Save, tc.sha))
			if !reflect.DeepEqual(got, tc.v5Sections) {
				t.Fatalf("sections drifted from v5's: sha256s %v, want %v", got, tc.v5Sections)
			}
		})
	}
}
