//go:build !linux

package label

// No madvise outside Linux (the standard library only exposes it there);
// the mapped serving path works identically, minus the paging hints.
const (
	adviceWillNeed = 0
	adviceRandom   = 0
)

func madviseAligned(b []byte, advice int) {}
