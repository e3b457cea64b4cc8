//go:build linux

package label

import (
	"os"
	"syscall"
	"unsafe"
)

// The serving path's access-pattern hints (see MapContainer). Linux is the
// only target where syscall.Madvise is guaranteed present in the standard
// library without an x/sys dependency, so the hints live behind this build
// tag; every other platform compiles the no-ops in madvise_other.go.
const (
	adviceWillNeed = syscall.MADV_WILLNEED
	adviceRandom   = syscall.MADV_RANDOM
)

// madviseAligned applies advice to b from its first page boundary on —
// for byte slices (like a section inside a mapping) whose start is not
// page-aligned; at most one leading partial page goes unadvised.
// Failures are ignored: hints must never break serving.
func madviseAligned(b []byte, advice int) {
	if len(b) == 0 {
		return
	}
	page := uintptr(os.Getpagesize())
	skip := int((page - uintptr(unsafe.Pointer(&b[0]))%page) % page)
	if skip >= len(b) {
		return
	}
	_ = syscall.Madvise(b[skip:], advice)
}
