package label

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// FlatIndex is a frozen, read-only hub labeling packed into two contiguous
// arrays: a CSR-style offsets vector and one stream of label words (see
// Pack), hub-sorted per vertex, each distance a count of the index's unit
// 2^-k (see UnitExp) — so a merge-join step issues exactly one load per
// side, the hub comparison is a shift, and the distance comes for free
// from the word already in a register. The words are those of Index's
// Sets; what freezing removes is the slice header per vertex and the
// pointer chase to each set, which keeps both sides of the join on
// sequential cache lines. Because hubs occupy the high bits, entries are
// monotonically increasing per vertex, and the in-memory arrays are
// byte-identical to the container's EncPacked sections (see container.go).
//
// Distances are exact: a unit count converts to float64 without rounding
// and Freeze refuses a label it cannot count. On every integer-weighted
// graph k is 0 and a count is the distance itself.
//
// A FlatIndex is immutable after construction and safe for concurrent
// readers.
type FlatIndex struct {
	offsets []uint32 // len n+1; labels of v are entries [offsets[v], offsets[v+1])
	entries []uint64 // hub<<32 | units, ascending per vertex
	unitExp int      // k: a stored count is units of 2^-k
}

// MaxUnitExp bounds k, as in graph.Finish; a header claiming more is refused.
const MaxUnitExp = graph.MaxUnitExp

// FromUnits converts a kernel's answer in units of 2^-k into a distance,
// exactly (a power-of-two scaling); Infinity, the answer of runs that
// share no hub, stays Infinity.
func FromUnits(units float64, k int) float64 {
	if k == 0 || units == Infinity {
		return units
	}
	return math.Ldexp(units, -k)
}

// FreezeHalves packs the halves of one labeling (one Index undirected,
// forward and backward directed) into FlatIndexes, in one pass, at the
// unit 2^-k of the graph they were built on (0 on integer weights). Every
// label distance is already a whole number of units below 2^32: the
// builders refuse any other (Units). The source sets must be sorted (they
// always are outside of construction phases).
func FreezeHalves(ixs ...*Index) []*FlatIndex {
	fs := make([]*FlatIndex, len(ixs))
	for h, ix := range ixs {
		f := &FlatIndex{offsets: make([]uint32, len(ix.sets)+1), unitExp: ix.k}
		f.entries = make([]uint64, 0, ix.TotalLabels())
		for v, s := range ix.sets {
			f.entries = append(f.entries, s...)
			f.offsets[v+1] = uint32(len(f.entries))
		}
		fs[h] = f
	}
	return fs
}

// Freeze is FreezeHalves for one Index.
func Freeze(ix *Index) *FlatIndex { return FreezeHalves(ix)[0] }

// UnitExp returns k: the index's entries count units of 2^-k.
func (f *FlatIndex) UnitExp() int { return f.unitExp }

// NumVertices returns the number of vertices the index covers.
func (f *FlatIndex) NumVertices() int { return len(f.offsets) - 1 }

// NumLabels returns the total number of packed labels.
func (f *FlatIndex) NumLabels() int64 { return int64(len(f.entries)) }

// LabelCount returns the number of labels of v.
func (f *FlatIndex) LabelCount(v int) int {
	return int(f.offsets[v+1] - f.offsets[v])
}

// TotalMemory returns the exact byte footprint of the packed arrays: 8
// bytes per label plus 4 bytes per vertex of offsets — the slice-based
// Index holds the same 8 bytes per label plus a slice header per vertex.
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

// Labels returns a copy of the label set of v (allocates; query paths
// join the packed runs directly, and Set(f.PackedRun(v)) is the same set
// without the copy).
func (f *FlatIndex) Labels(v int) Set { return Set(f.PackedRun(v)).Clone() }

// Slice returns a new heap-backed FlatIndex over the same vertex-id space
// that keeps only the label runs of vertices for which keep returns true;
// every other vertex gets an empty run. This is how a shard-index writer
// carves one shard's share out of a full index: the sliced index remains a
// structurally valid FlatIndex (hub ids still reference the full vertex
// space), so the existing savers, loaders, and serving stack work on it
// unchanged.
func (f *FlatIndex) Slice(keep func(v int) bool) Store {
	n := f.NumVertices()
	out := &FlatIndex{offsets: make([]uint32, n+1), unitExp: f.unitExp}
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
// hub names a vertex of this index — otherwise the hub table and witness
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
