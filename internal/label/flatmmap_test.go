package label

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"unsafe"
)

// randomFlat builds a structurally valid flat index with pseudo-random
// label runs (strictly increasing hubs, integer distances).
func randomFlat(t *testing.T, n int, seed int64) *FlatIndex {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ix := NewIndex(n)
	for v := 0; v < n; v++ {
		k := 1 + rng.Intn(6)
		if k > n {
			k = n
		}
		hubs := rng.Perm(n)[:k]
		s := make(Set, 0, k)
		for _, h := range hubs {
			s = append(s, L{Hub: uint32(h), Dist: float64(rng.Intn(1000))})
		}
		s.Sort()
		ix.SetLabels(v, s)
	}
	return Freeze(ix)
}

// The core zero-copy contract: a payload mapped in place holds, word for
// word, the runs the copying reader decodes from the same payload.
func TestMapFlatParityWithReadFlat(t *testing.T) {
	f := randomFlat(t, 60, 3)
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	heap, err := ReadFlat(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Place the payload base so the arrays land aligned, as CHFX v2's
	// pad byte arranges in real files.
	mapped, err := MapFlat(aligned(buf.Bytes(), alignSkew(60)))
	if err != nil {
		t.Fatal(err)
	}
	sameRuns(t, mapped, heap)
}

// alignSkew returns the payload base offset (mod 8) that aligns a CHLF
// payload over n vertices: offsets on 4 bytes at base+17, entries on 8 at
// base+17+4(n+1). This is the placement CHFX v2's pad byte produces.
func alignSkew(n int) int {
	for skew := 0; skew < 8; skew++ {
		if (skew+17)%4 == 0 && (skew+17+4*(n+1))%8 == 0 {
			return skew
		}
	}
	panic("no aligning skew")
}

// aligned copies b into a buffer whose start is 8-byte aligned plus skew
// (skew > 0 deliberately misaligns the payload).
func aligned(b []byte, skew int) []byte {
	buf := make([]byte, len(b)+16)
	off := 0
	for uintptr(unsafe.Pointer(&buf[off]))%8 != 0 {
		off++
	}
	off += skew
	copy(buf[off:], b)
	return buf[off : off+len(b)]
}

func TestMapFlatRejectsMisaligned(t *testing.T) {
	f := randomFlat(t, 10, 5)
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// What matters is the placement of the arrays, not of the payload
	// base: with n=10 the offsets sit 17 bytes and the entries 61 bytes
	// past the base, so a base at (8k+skew) aligns both exactly when
	// skew+17 ≡ 0 (mod 4) and skew+61 ≡ 0 (mod 8), i.e. skew = 3.
	for skew := 0; skew < 8; skew++ {
		_, err := MapFlat(aligned(buf.Bytes(), skew))
		wantOK := (skew+17)%4 == 0 && (skew+61)%8 == 0
		switch {
		case wantOK && err != nil:
			t.Errorf("skew %d: aligned payload rejected: %v", skew, err)
		case !wantOK && !errors.Is(err, ErrNotMappable):
			t.Errorf("skew %d: want ErrNotMappable, got %v", skew, err)
		}
	}
}

func TestMapFlatRejectsGarbage(t *testing.T) {
	f := randomFlat(t, 10, 7)
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	corruptHub := append([]byte(nil), full...)
	// Smash a hub id in the last entry to an out-of-range value.
	copy(corruptHub[len(corruptHub)-4:], []byte{0xff, 0xff, 0xff, 0x7f})
	cases := map[string][]byte{
		"empty":       nil,
		"short":       full[:10],
		"wrong magic": append([]byte("CHL1"), full[4:]...),
		"bad version": append([]byte("CHLF\x09"), full[5:]...),
		"truncated":   full[:len(full)-8],
		"corrupt hub": corruptHub,
	}
	for name, c := range cases {
		if _, err := MapFlat(aligned(c, alignSkew(10))); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestMapFlatAt(t *testing.T) {
	f := randomFlat(t, 40, 11)
	var payload bytes.Buffer
	if _, err := f.WriteTo(&payload); err != nil {
		t.Fatal(err)
	}
	// Bury the payload behind a fake prefix at an offset that aligns its
	// arrays, the way CHFX v2 does (mappings start page-aligned, so the
	// file offset alone decides alignment).
	off := 56 + alignSkew(40)
	file := make([]byte, off+payload.Len())
	copy(file[off:], payload.Bytes())
	path := filepath.Join(t.TempDir(), "buried.flat")
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	mapped, closer, err := MapFlatAt(path, int64(off))
	if err != nil {
		if errors.Is(err, ErrNotMappable) {
			t.Skipf("platform cannot mmap: %v", err)
		}
		t.Fatal(err)
	}
	sameRuns(t, mapped, f)
	if err := closer(); err != nil {
		t.Fatalf("closer: %v", err)
	}

	if _, _, err := MapFlatAt(path, int64(len(file))+5); err == nil {
		t.Fatal("offset past EOF accepted")
	}
	if _, _, err := MapFlatAt(filepath.Join(t.TempDir(), "missing"), 0); err == nil {
		t.Fatal("missing file accepted")
	}
}
