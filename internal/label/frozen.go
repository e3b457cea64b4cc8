package label

import (
	"os"
	"runtime"
)

// Store is the read side of a frozen label store: one hub-sorted label
// run per vertex, in one of two encodings — fixed-width packed words
// (*FlatIndex) or one delta+varint stream per vertex (*CompressedIndex). Everything
// above this package holds Stores and never asks which; a directed index
// is two of them (forward and backward runs), an undirected one the same
// store twice. The join kernels read the concrete arrays, and Join picks
// the kernel from the implementation, so the interface is for everything
// that is not the hot loop: sizing, auditing, slicing, and handing a run
// to a consumer that wants the fixed-width wire layout.
//
// A Store is immutable after construction and safe for concurrent readers.
type Store interface {
	NumVertices() int
	// encoding and arrays are what a Container writes: the encoding byte
	// and the arrays as little-endian bytes in file order (aliasing the
	// arrays themselves on a little-endian host).
	encoding() Encoding
	arrays() [][]byte
	NumLabels() int64
	// LabelCount returns the number of labels of v: O(1) on a fixed-width
	// store, one pass over v's stream bytes on a compressed one (counting
	// varint ends, decoding none).
	LabelCount(v int) int
	// TotalMemory returns the exact byte footprint of the label arrays.
	TotalMemory() int64
	// Labels reconstructs the label set of v, in units of 2^-UnitExp()
	// (allocates).
	Labels(v int) Set
	// Slice returns a heap-backed store of the same encoding over the same
	// vertex-id space holding only the runs of the vertices keep selects;
	// every other vertex gets an empty run.
	Slice(keep func(v int) bool) Store
	// UnitExp returns k: the store counts distances in units of 2^-k.
	UnitExp() int
	// RunInto returns the run of v as packed words (hub<<32 | units,
	// ascending), which the caller must not modify. A
	// fixed-width store returns its own array and ignores buf; a
	// compressed store decodes into (*buf)[:0], growing *buf as needed, or
	// into a fresh slice when buf is nil — so the result is valid until
	// *buf is next decoded into, and a reused buffer never aliases a
	// store's (possibly read-only mapped) memory.
	RunInto(buf *[]uint64, v int) []uint64
}

// IsCompressed reports whether st holds its labels as compressed varint
// streams rather than fixed-width packed entries.
func IsCompressed(st Store) bool {
	_, ok := st.(*CompressedIndex)
	return ok
}

// prefault walks raw, the file mapping a mapped container's arrays alias,
// one byte per page, and returns the pages touched (0 for the nil region
// of a heap-backed one). The label bodies carry MADV_RANDOM (readahead
// off), which would turn the sequential walk into one synchronous
// single-page fault per page, so the whole region is asked for eagerly
// first — the kernel then reads ahead of the walk — and the random-access
// hint is restored once everything is resident.
func prefault(raw []byte) int {
	if len(raw) == 0 {
		return 0
	}
	madviseAligned(raw, adviceWillNeed)
	defer madviseAligned(raw, adviceRandom)
	page := os.Getpagesize()
	var sink byte
	pages := 0
	for i := 0; i < len(raw); i += page {
		sink += raw[i]
		pages++
	}
	runtime.KeepAlive(sink)
	return pages
}
