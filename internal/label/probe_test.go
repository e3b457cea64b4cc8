package label

import (
	"fmt"
	"math"
	"testing"
)

// checkCover holds both cover paths to want on lv, every hub of which is in
// the table: the scalar loop, and where the host has the vector kernel, the
// kernel alone, which must then clear all of lv itself.
func checkCover(t *testing.T, slot []uint64, lv Set, delta uint64, want bool) {
	t.Helper()
	d := min(delta, absent-1)
	if got := coverScalar(slot, lv, d); got != want {
		t.Fatalf("coverScalar(%v, δ=%v) = %v, want %v", lv, delta, got, want)
	}
	if !hasVector {
		return
	}
	if hit, done := coverVector(slot, lv, d); hit != want || (!hit && done != len(lv)) {
		t.Fatalf("coverVector(%v, δ=%v) = %v after %d of %d entries, want %v", lv, delta, hit, done, len(lv), want)
	}
}

// fuzzDist draws a label distance from one byte: mostly small, so sums tie
// often, or just past 2^31, or within 16 of 2^32−1.
func fuzzDist(x byte) uint32 {
	switch x >> 6 {
	case 3:
		return math.MaxUint32 - uint32(x&0xf)
	case 2:
		return 1<<31 + uint32(x&0xf)
	default:
		return uint32(x & 0x1f)
	}
}

// FuzzCoverProbe holds the cover probe to a brute-force scan over
// byte-steered tables of up to 300 hubs and label sets of 0–40 entries, so
// every tail length of an eight-entry vector occurs: the scalar loop, the
// vector kernel alone, and QueryAgainst / QueryAgainstBounded, at δ = 0,
// the smallest common sum and one below it, 2^63−1, 2^64−1 and a drawn δ.
// Sets are sorted or not, and name hub n−1 often. A hub at or past n must
// panic in the kernel's path exactly where and as it does in the scalar
// loop: after no witness before it, with the same message.
func FuzzCoverProbe(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x7f, 0x00, 0x08, 0x01, 0x10, 0x02, 0x11, 0x03, 0x12, 0x02, 0x06, 0x00, 0x10, 0x05, 0x02, 0x07, 0x01})
	f.Add([]byte{0x20, 0x00, 0x05, 0x04, 0x01, 0x06, 0x25, 0x03, 0x09, 0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x04})
	long := make([]byte, 256)
	for i := range long {
		long[i] = byte(i*37 + 11)
	}
	f.Add(long)
	if !hasVector {
		f.Log("no AVX-512F on this host: the vector kernel is not checked, only the scalar loop")
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		n := 1 + (int(next())|int(next())<<8)%300
		hd, ref := NewHubTable(n), map[uint32]uint32{}
		var roots []uint32
		add := func(hub, d uint32) {
			hd.Add(Pack(hub, d))
			if old, ok := ref[hub]; !ok || d < old {
				ref[hub] = d
			}
			roots = append(roots, hub)
		}
		add(uint32(n-1), fuzzDist(next()))
		for k := next() % 48; k > 0; k-- {
			add(uint32((int(next())|int(next())<<8)%n), fuzzDist(next()))
		}
		flags := next()
		lv := make(Set, next()%41)
		for i := range lv {
			x := next()
			var hub uint32
			switch x & 3 {
			case 0:
				hub = uint32(n - 1)
			case 1:
				hub = roots[int(x>>2)%len(roots)]
			default:
				hub = uint32((int(x>>2) | int(next())<<6) % n)
			}
			lv[i] = Pack(hub, fuzzDist(next()))
		}
		if flags&1 != 0 {
			lv.Sort()
		}
		// firstWitness is the index of the first entry of lv below bound
		// whose sum is at most δ, or −1; smallest is the least sum through
		// a hub lv shares with the table.
		firstWitness := func(lv Set, delta uint64, bound uint32) int {
			for i, e := range lv {
				if d, ok := ref[Hub(e)]; ok && Hub(e) < bound && uint64(Dist(e))+uint64(d) <= delta {
					return i
				}
			}
			return -1
		}
		smallest := uint64(math.MaxUint64)
		for _, e := range lv {
			if d, ok := ref[Hub(e)]; ok {
				smallest = min(smallest, uint64(Dist(e))+uint64(d))
			}
		}
		bound := uint32((int(next()) | int(next())<<8) % (n + 1))
		deltas := []uint64{0, smallest, smallest - 1, math.MaxInt64, math.MaxUint64, uint64(next()) << (next() % 34)}
		for _, delta := range deltas {
			want := firstWitness(lv, delta, math.MaxUint32) >= 0
			checkCover(t, hd.slot, lv, delta, want)
			if got := hd.QueryAgainst(lv, delta); got != want {
				t.Fatalf("QueryAgainst(%v, δ=%v) = %v, want %v", lv, delta, got, want)
			}
			if flags&1 != 0 {
				if got, want := hd.QueryAgainstBounded(lv, delta, bound), firstWitness(lv, delta, bound) >= 0; got != want {
					t.Fatalf("QueryAgainstBounded(%v, δ=%v, bound %d) = %v, want %v", lv, delta, bound, got, want)
				}
			}
		}
		if flags&2 == 0 || len(lv) == 0 {
			return
		}
		// A hub past the table at a drawn position.
		at := int(next()) % len(lv)
		lv[at] = Pack(uint32(n)+uint32(next()), fuzzDist(next()))
		delta := deltas[int(flags>>2)%len(deltas)]
		w := firstWitness(lv[:at], delta, math.MaxUint32)
		run := func(probe func(Set) bool) (hit bool, panicked string) {
			defer func() {
				if r := recover(); r != nil {
					panicked = fmt.Sprint(r)
				}
			}()
			return probe(lv), ""
		}
		d := min(delta, absent-1)
		sHit, sPanic := run(func(lv Set) bool { return coverScalar(hd.slot, lv, d) })
		if (w >= 0) != sHit || (w < 0) != (sPanic != "") {
			t.Fatalf("coverScalar(%v, δ=%v) = %v, panic %q: want a witness at %d, or a panic at %d", lv, delta, sHit, sPanic, w, at)
		}
		if hit, p := run(func(lv Set) bool { return hd.QueryAgainst(lv, delta) }); hit != sHit || p != sPanic {
			t.Fatalf("QueryAgainst(%v, δ=%v) = %v, panic %q; the scalar loop %v, panic %q", lv, delta, hit, p, sHit, sPanic)
		}
		if hit, done := coverVector(hd.slot, lv, d); !hit && done > at {
			t.Fatalf("coverVector(%v, δ=%v) cleared %d entries, past the hub at %d", lv, delta, done, at)
		}
	})
}
