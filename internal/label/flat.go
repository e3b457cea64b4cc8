package label

import (
	"fmt"
	"math"
)

// FlatIndex is a frozen, read-only hub labeling packed into two contiguous
// arrays: a CSR-style offsets vector and one packed entry stream,
// hub-sorted per vertex. Each entry is a single uint64 with the hub id in
// the high 32 bits and the IEEE-754 bits of the float32 distance in the
// low 32 — so a merge-join step issues exactly one load per side, the hub
// comparison is a shift, and the distance comes for free from the word
// already in a register. Compared with Index's per-vertex Go slices this
// removes two pointer chases per query side, halves the entry size (8
// bytes vs 16), and keeps both sides of the join on sequential cache
// lines. Because hubs occupy the high bits, entries are monotonically
// increasing per vertex, and the in-memory arrays are byte-identical to
// the container's EncPacked sections (see container.go).
//
// Distances are narrowed to float32. The synthetic datasets and DIMACS
// road graphs use small integer edge weights, for which float32 is exact
// (integers below 2^24 round-trip); graphs with arbitrary fractional
// weights lose precision beyond ~7 significant digits.
//
// A FlatIndex is immutable after construction and safe for concurrent
// readers.
type FlatIndex struct {
	offsets []uint32 // len n+1; labels of v are entries [offsets[v], offsets[v+1])
	entries []uint64 // hub<<32 | float32bits(dist), ascending per vertex
}

func packEntry(hub uint32, dist float64) uint64 {
	return uint64(hub)<<32 | uint64(math.Float32bits(float32(dist)))
}

func entryHub(e uint64) uint32 { return uint32(e >> 32) }

func entryDist(e uint64) float64 { return float64(math.Float32frombits(uint32(e))) }

// Freeze packs an Index into a FlatIndex. The source sets must be sorted
// (they always are outside of construction phases).
func Freeze(ix *Index) *FlatIndex {
	n := ix.NumVertices()
	total := ix.TotalLabels()
	f := &FlatIndex{
		offsets: make([]uint32, n+1),
		entries: make([]uint64, total),
	}
	k := 0
	for v := 0; v < n; v++ {
		f.offsets[v] = uint32(k)
		for _, l := range ix.Labels(v) {
			f.entries[k] = packEntry(l.Hub, l.Dist)
			k++
		}
	}
	f.offsets[n] = uint32(k)
	return f
}

// NumVertices returns the number of vertices the index covers.
func (f *FlatIndex) NumVertices() int { return len(f.offsets) - 1 }

// NumLabels returns the total number of packed labels.
func (f *FlatIndex) NumLabels() int64 { return int64(len(f.entries)) }

// LabelCount returns the number of labels of v.
func (f *FlatIndex) LabelCount(v int) int {
	return int(f.offsets[v+1] - f.offsets[v])
}

// TotalMemory returns the exact byte footprint of the packed arrays: 8
// bytes per label plus 4 bytes per vertex of offsets — versus 16 bytes per
// label plus a slice header per vertex for the slice-based Index.
func (f *FlatIndex) TotalMemory() int64 {
	return int64(len(f.offsets))*4 + int64(len(f.entries))*8
}

// PackedRun returns the packed entry run of v, aliasing the index's entry
// array (zero-copy on a memory-mapped index). The run is sorted ascending
// by hub id; callers must not modify it.
func (f *FlatIndex) PackedRun(v int) []uint64 {
	lo, hi := f.offsets[v], f.offsets[v+1]
	return f.entries[lo:hi:hi]
}

// RunInto is PackedRun: a fixed-width store hands out its own array and
// never touches buf (see Store).
func (f *FlatIndex) RunInto(_ *[]uint64, v int) []uint64 { return f.PackedRun(v) }

// Labels reconstructs the label set of v (allocates; query paths join
// the packed runs directly).
func (f *FlatIndex) Labels(v int) Set {
	lo, hi := f.offsets[v], f.offsets[v+1]
	s := make(Set, 0, hi-lo)
	for k := lo; k < hi; k++ {
		e := f.entries[k]
		s = append(s, L{Hub: entryHub(e), Dist: entryDist(e)})
	}
	return s
}

// Slice returns a new heap-backed FlatIndex over the same vertex-id space
// that keeps only the label runs of vertices for which keep returns true;
// every other vertex gets an empty run. This is how a shard-index writer
// carves one shard's share out of a full index: the sliced index remains a
// structurally valid FlatIndex (hub ids still reference the full vertex
// space), so the existing savers, loaders, and serving stack work on it
// unchanged.
func (f *FlatIndex) Slice(keep func(v int) bool) Store {
	n := f.NumVertices()
	out := &FlatIndex{offsets: make([]uint32, n+1)}
	var total int
	for v := 0; v < n; v++ {
		if keep(v) {
			total += f.LabelCount(v)
		}
	}
	out.entries = make([]uint64, 0, total)
	for v := 0; v < n; v++ {
		out.offsets[v] = uint32(len(out.entries))
		if keep(v) {
			out.entries = append(out.entries, f.PackedRun(v)...)
		}
	}
	out.offsets[n] = uint32(len(out.entries))
	return out
}

// validate checks the structural invariants every loader (copying or
// memory-mapped) must establish before the query paths may trust the
// arrays: the offsets span the entry array monotonically, per-vertex hubs
// are strictly sorted (entries are ordered by hub in the high bits, so
// monotonicity of the packed words is exactly hub sortedness), and every
// hub names a vertex of this index — otherwise the scratch and witness
// lookups would index out of range.
func (f *FlatIndex) validate() error {
	n := f.NumVertices()
	if n < 0 {
		return fmt.Errorf("label: flat index has no offsets")
	}
	if f.offsets[0] != 0 || int64(f.offsets[n]) != int64(len(f.entries)) {
		return fmt.Errorf("label: flat offsets do not span the label array")
	}
	for v := 0; v < n; v++ {
		if f.offsets[v] > f.offsets[v+1] {
			return fmt.Errorf("label: flat offsets not monotone at vertex %d", v)
		}
	}
	for v := 0; v < n; v++ {
		for k := f.offsets[v] + 1; k < f.offsets[v+1]; k++ {
			if f.entries[k-1]>>32 >= f.entries[k]>>32 {
				return fmt.Errorf("label: flat hubs of vertex %d not strictly sorted", v)
			}
		}
	}
	for k, e := range f.entries {
		if e>>32 >= uint64(n) {
			return fmt.Errorf("label: flat entry %d has out-of-range hub %d (n=%d)", k, e>>32, n)
		}
	}
	return nil
}
