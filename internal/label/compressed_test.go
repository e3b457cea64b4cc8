package label

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// randomLabelIndex builds a random label index over n vertices whose
// per-vertex hub sets are drawn from [0, n) with the given density.
// Distances mix small integers (the uvarint plane), fractional values
// and huge values (the float plane), plus the occasional -0.0 — the bit
// pattern the int plane must refuse so parity stays exact. All of them
// are float32-exact, so freezing loses nothing and the frozen kernels
// can be held to QueryMerge on the sets themselves.
func randomLabelIndex(rng *rand.Rand, n int, density float64) *Index {
	ix := NewIndex(n)
	for v := 0; v < n; v++ {
		s := Set{}
		for h := 0; h < n; h++ {
			if rng.Float64() >= density {
				continue
			}
			var d float64
			switch rng.Intn(6) {
			case 0, 1, 2:
				d = float64(rng.Intn(1 << 10)) // small int: varint plane
			case 3:
				d = float64(rng.Intn(1<<10)) + 0.5 // fractional: float plane
			case 4:
				d = float64(1<<24 + 2*rng.Intn(1<<9)) // too big for the int plane
			default:
				d = math.Copysign(0, -1) // -0.0: must stay on the float plane
			}
			s = append(s, L{Hub: uint32(h), Dist: d})
		}
		ix.SetLabels(v, s)
	}
	return ix
}

// compressedEqual asserts two compressed indexes hold identical arrays.
func compressedEqual(t *testing.T, got, want *CompressedIndex) {
	t.Helper()
	if got.n != want.n || got.blockSize != want.blockSize || got.total != want.total {
		t.Fatalf("header mismatch: (%d,%d,%d) vs (%d,%d,%d)",
			got.n, got.blockSize, got.total, want.n, want.blockSize, want.total)
	}
	for i := range want.vertOff {
		if got.vertOff[i] != want.vertOff[i] {
			t.Fatalf("vertOff[%d] = %d, want %d", i, got.vertOff[i], want.vertOff[i])
		}
	}
	if len(got.heads) != len(want.heads) {
		t.Fatalf("%d header words, want %d", len(got.heads), len(want.heads))
	}
	for i := range want.heads {
		if got.heads[i] != want.heads[i] {
			t.Fatalf("heads[%d] = %#x, want %#x", i, got.heads[i], want.heads[i])
		}
	}
	if !bytes.Equal(got.data, want.data) {
		t.Fatal("payload bytes differ")
	}
}

// TestCompressedFlatRoundTrip writes CHLC payloads (single- and
// two-half) and reads them back through both the copying reader and the
// mmap loader, asserting array-exact equality.
func TestCompressedFlatRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	fwd, err := Compress(Freeze(randomLabelIndex(rng, 60, 0.25)))
	if err != nil {
		t.Fatal(err)
	}
	bwd, err := Compress(Freeze(randomLabelIndex(rng, 60, 0.15)))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		bwd  *CompressedIndex
	}{{"single", nil}, {"directed", bwd}} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			written, err := WriteCompressedFlat(&buf, fwd, tc.bwd)
			if err != nil {
				t.Fatal(err)
			}
			if written != int64(buf.Len()) {
				t.Fatalf("WriteCompressedFlat reported %d bytes, wrote %d", written, buf.Len())
			}
			rf, rb, err := ReadCompressedFlat(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			compressedEqual(t, rf, fwd)
			if tc.bwd == nil {
				if rb != nil {
					t.Fatal("single-half payload decoded a second half")
				}
			} else {
				compressedEqual(t, rb, tc.bwd)
			}

			path := filepath.Join(t.TempDir(), "c.chlc")
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			fl, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer fl.Close()
			mf, mb, closer, err := MapCompressedFlatFile(fl, 0)
			if err != nil {
				t.Skipf("mmap unavailable: %v", err)
			}
			defer closer()
			compressedEqual(t, mf, fwd)
			if tc.bwd != nil {
				compressedEqual(t, mb, tc.bwd)
			}
			if mf.Prefault() == 0 {
				t.Error("Prefault walked 0 pages on a mapped index")
			}
		})
	}
}

// TestCompressedSavings pins the acceptance bar from ROADMAP item 4 at
// the package level: on integer-weighted label sets (what the graph
// generators emit), the compressed arrays are at least 25% smaller than
// the fixed-width flat arrays.
func TestCompressedSavings(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ix := NewIndex(200)
	for v := 0; v < 200; v++ {
		s := Set{}
		for h := 0; h < 200; h++ {
			if rng.Float64() < 0.15 {
				s = append(s, L{Hub: uint32(h), Dist: float64(rng.Intn(512))})
			}
		}
		ix.SetLabels(v, s)
	}
	f := Freeze(ix)
	c, err := Compress(f)
	if err != nil {
		t.Fatal(err)
	}
	flat := f.TotalMemory()
	comp := c.TotalMemory()
	if comp > flat*3/4 {
		t.Fatalf("compressed arrays take %d bytes, flat %d — less than 25%% saved", comp, flat)
	}
}
