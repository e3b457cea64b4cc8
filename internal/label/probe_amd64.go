package label

// hasVector is read once from the platform: CPUID reports AVX-512F and
// XCR0 shows the OS saving the opmask and ZMM state.
var hasVector = hasAVX512()

// coverVector runs the cover probe's AVX-512 kernel over lv where the CPU
// has one: hit at the first vector of eight holding a witness, and
// otherwise done, the entries it cleared. That is all of lv, or the
// entries before the first vector naming a hub past the table, which the
// kernel leaves to coverScalar to panic on as it would alone. Without the
// kernel it clears nothing.
func coverVector(slot []uint64, lv Set, d uint64) (hit bool, done int) {
	if !hasVector {
		return false, 0
	}
	return probeAVX512(slot, lv, d)
}

//go:noescape
func probeAVX512(slot []uint64, lv []uint64, d uint64) (hit bool, done int)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (xcr0 uint32)

// hasAVX512 reports AVX-512F with its state saved by the OS.
func hasAVX512() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(1<<27) == 0 { // OSXSAVE: XGETBV is usable
		return false
	}
	// XCR0 bits 1–2 (SSE, AVX) and 5–7 (opmask, upper ZMM0–15, ZMM16–31).
	if xgetbv()&0xe6 != 0xe6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<16) != 0 // AVX512F
}
