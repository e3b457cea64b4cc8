package label

import (
	"bytes"
	"testing"
)

// fuzzFixtureRuns builds the seed corpus the packed-run fuzzer starts
// from: real runs frozen out of a small index, the same shape the label
// tests use, so the fuzzer begins at valid inputs and mutates outward.
func fuzzFixtureRuns() (*FlatIndex, int) {
	const n = 32
	ix := NewIndex(n, 1)
	for v := 0; v < n; v++ {
		s := Set{}
		for h := uint32(0); int(h) <= v; h += 3 {
			s = append(s, Pack(h, 2*uint32(v-int(h))+1))
		}
		ix.SetLabels(v, s)
	}
	return Freeze(ix), n
}

// FuzzParsePackedRun drives the wire decoder for packed label runs with
// arbitrary bytes and vertex-space sizes. Invariants: no panic, anything
// accepted satisfies the structural guarantees the join kernels rely on
// (strictly ascending hubs, all below n), and accepted runs round-trip
// byte-identically through PackedRunBytes.
func FuzzParsePackedRun(f *testing.F) {
	fx, n := fuzzFixtureRuns()
	for v := 0; v < n; v += 5 {
		f.Add(PackedRunBytes(fx.PackedRun(v)), uint32(n))
	}
	// Characteristic corruptions: truncation, duplicate hubs, hub == n.
	valid := PackedRunBytes(fx.PackedRun(n - 1))
	f.Add(valid[:len(valid)-3], uint32(n))
	f.Add(append(append([]byte{}, valid[:8]...), valid[:8]...), uint32(n))
	f.Add(PackedRunBytes([]uint64{uint64(n) << 32}), uint32(n))
	f.Add([]byte{}, uint32(0))

	f.Fuzz(func(t *testing.T, data []byte, n32 uint32) {
		n := int(n32 % (1 << 24)) // keep hub bounds in a sane range
		run, err := ParsePackedRun(data, n)
		if err != nil {
			return
		}
		if len(run) != len(data)/8 {
			t.Fatalf("accepted %d bytes as %d entries", len(data), len(run))
		}
		for i, e := range run {
			if hub := e >> 32; hub >= uint64(n) {
				t.Fatalf("accepted entry %d with hub %d >= n=%d", i, hub, n)
			}
			if i > 0 && run[i-1]>>32 >= e>>32 {
				t.Fatalf("accepted unsorted hubs at entry %d", i)
			}
		}
		if !bytes.Equal(PackedRunBytes(run), data) {
			t.Fatal("accepted run does not round-trip byte-identically")
		}
	})
}
