//go:build !amd64

package label

// The cover probe has a vector kernel on amd64 only (probe_amd64.s); here
// coverScalar answers every query.
const hasVector = false

func coverVector(slot []uint64, lv Set, d uint64) (hit bool, done int) { return false, 0 }
