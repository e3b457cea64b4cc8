package label

import (
	"bytes"
	"math/rand"
	"testing"
)

// randomIndex builds a structurally valid index with sorted per-vertex
// sets and float32-exact (integer) distances.
func randomIndex(n int, seed int64) *Index {
	rng := rand.New(rand.NewSource(seed))
	ix := NewIndex(n)
	for v := 0; v < n; v++ {
		used := map[uint32]bool{}
		s := Set{}
		for k := 0; k < rng.Intn(8); k++ {
			h := uint32(rng.Intn(n))
			if used[h] {
				continue
			}
			used[h] = true
			d := float64(rng.Intn(1000))
			if int(h) == v {
				d = 0
			}
			s = append(s, L{Hub: h, Dist: d})
		}
		if !used[uint32(v)] {
			s = append(s, L{Hub: uint32(v), Dist: 0})
		}
		s.Sort()
		ix.SetLabels(v, s)
	}
	return ix
}

func TestFlatRoundTrip(t *testing.T) {
	ix := randomIndex(150, 3)
	f := Freeze(ix)
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	wire := buf.Len()
	if want := 17 + 4*(150+1) + 8*int(f.NumLabels()); wire != want {
		t.Fatalf("serialized size %d, want %d", wire, want)
	}
	back, err := ReadFlat(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sameRuns(t, back, f)
	// ReadFrom (io.ReaderFrom) path.
	var g FlatIndex
	if _, err := g.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if g.NumLabels() != f.NumLabels() {
		t.Fatal("ReadFrom lost labels")
	}
}

func TestReadFlatRejectsGarbage(t *testing.T) {
	good := func() []byte {
		var buf bytes.Buffer
		if _, err := Freeze(randomIndex(20, 5)).WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()
	cases := map[string][]byte{
		"empty":       nil,
		"short magic": []byte("CHL"),
		"bad magic":   append([]byte("NOPE"), good[4:]...),
		"bad version": append([]byte("CHLF\x09"), good[5:]...),
		"truncated":   good[:len(good)/2],
	}
	for name, c := range cases {
		if _, err := ReadFlat(bytes.NewReader(c)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Corrupt a hub id to point past the vertex range: the hub occupies
	// the high 4 bytes of the first little-endian entry word.
	var f0 FlatIndex
	if _, err := f0.ReadFrom(bytes.NewReader(good)); err != nil {
		t.Fatal(err)
	}
	hubOff := 17 + 4*(f0.NumVertices()+1) + 4
	oor := append([]byte(nil), good...)
	oor[hubOff] = 0xff
	oor[hubOff+1] = 0xff
	if _, err := ReadFlat(bytes.NewReader(oor)); err == nil {
		t.Error("out-of-range hub accepted")
	}
	// Corrupt the hub ordering of some vertex with ≥2 labels: swap the two
	// 4-byte hub cells right after the offsets block.
	var f FlatIndex
	if _, err := f.ReadFrom(bytes.NewReader(good)); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < f.NumVertices(); v++ {
		if f.LabelCount(v) >= 2 {
			off := 17 + 4*(f.NumVertices()+1) + 8*int(f.offsets[v])
			bad := append([]byte(nil), good...)
			copy(bad[off:off+8], good[off+8:off+16])
			copy(bad[off+8:off+16], good[off:off+8])
			if _, err := ReadFlat(bytes.NewReader(bad)); err == nil {
				t.Error("unsorted hubs accepted")
			}
			return
		}
	}
}

func TestFlatMemoryAccounting(t *testing.T) {
	ix := randomIndex(100, 6)
	f := Freeze(ix)
	want := int64(101)*4 + f.NumLabels()*8
	if f.TotalMemory() != want {
		t.Fatalf("TotalMemory = %d, want %d", f.TotalMemory(), want)
	}
	if f.TotalMemory() >= ix.TotalLabels()*16 {
		t.Fatal("flat store not smaller than slice entries alone")
	}
}
