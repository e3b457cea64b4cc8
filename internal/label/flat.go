package label

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// FlatIndex is a frozen, read-only hub labeling packed into two contiguous
// arrays: a CSR-style offsets vector and one packed entry stream,
// hub-sorted per vertex. Each entry is a single uint64 with the hub id in
// the high 32 bits and the distance in the low 32, as a count of the
// index's unit 2^-k (see UnitExp) — so a merge-join step issues exactly
// one load per side, the hub comparison is a shift, and the distance
// comes for free from the word already in a register. Compared with
// Index's per-vertex Go slices this removes two pointer chases per query
// side, halves the entry size (8 bytes vs 16), and keeps both sides of
// the join on sequential cache lines. Because hubs occupy the high bits,
// entries are monotonically increasing per vertex, and the in-memory
// arrays are byte-identical to the container's EncPacked sections (see
// container.go).
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

// MaxUnitExp bounds k: a finer unit could count no distance of 2^-31 or
// more. A header byte claiming more is refused.
const MaxUnitExp = 63

func packEntry(hub, units uint32) uint64 { return uint64(hub)<<32 | uint64(units) }

func entryHub(e uint64) uint32 { return uint32(e >> 32) }

// entryUnits is the distance of a packed entry in units. Every kernel sums
// two of them in float64, where sums below 2^33 are exact.
func entryUnits(e uint64) float64 { return float64(uint32(e)) }

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
// forward and backward directed) into FlatIndexes at one unit 2^-k: the
// coarsest that counts every label distance of every half, 0 on every
// integer-weighted graph. It refuses, naming the label, a distance that
// is not a whole number of units below 2^32 — the frozen stores hold
// nothing they would round. The source sets must be sorted (they always
// are outside of construction phases).
func FreezeHalves(ixs ...*Index) ([]*FlatIndex, error) {
	// Integer labels, the common case, pack in one pass at k = 0; only a
	// refusal there pays for the pass that finds k. Past MaxUnitExp the
	// finest unit a store holds refuses the label that needs a finer one.
	fs, err := freezeAt(0, ixs)
	if err != nil {
		if k := unitExpOf(ixs); k > 0 {
			return freezeAt(min(k, MaxUnitExp), ixs)
		}
	}
	return fs, err
}

// Freeze is FreezeHalves for one Index. It panics where FreezeHalves
// errs — on labels past 2^32 units; (*chl.Index).Freeze, the serving
// path, reports that as an error instead.
func Freeze(ix *Index) *FlatIndex {
	fs, err := FreezeHalves(ix)
	if err != nil {
		panic(err)
	}
	return fs[0]
}

// unitExpOf returns the smallest k ≥ 0 for which every label distance of
// the indexes is a whole number of units 2^-k.
func unitExpOf(ixs []*Index) int {
	k := 0
	for _, ix := range ixs {
		for _, s := range ix.sets {
			for _, l := range s {
				if l.Dist != float64(int64(l.Dist)) { // integers need not ask
					k = max(k, graph.UnitExp(l.Dist))
				}
			}
		}
	}
	return k
}

// freezeAt packs every index at unit 2^-k, or refuses the first label
// that is not a whole number of units below 2^32.
func freezeAt(k int, ixs []*Index) ([]*FlatIndex, error) {
	fs := make([]*FlatIndex, len(ixs))
	scale := math.Ldexp(1, k) // exact: a power of two
	for h, ix := range ixs {
		n := ix.NumVertices()
		f := &FlatIndex{
			offsets: make([]uint32, n+1),
			entries: make([]uint64, ix.TotalLabels()),
			unitExp: k,
		}
		i := 0
		for v := 0; v < n; v++ {
			f.offsets[v] = uint32(i)
			for _, l := range ix.Labels(v) {
				u := l.Dist * scale
				// Whatever uint32(u) makes of a u outside [0, 2^32), it
				// converts back to a value in that range: != catches
				// negatives, NaN and overflow as well as fractions.
				units := uint32(u)
				if float64(units) != u {
					return nil, fmt.Errorf("label: vertex %d's label at hub %d (rank) has distance %v, which is not a whole number of units 2^-%d below 2^32; keep the graph's distances below 2^32 units (scale its weights down, or to coarser dyadic fractions)", v, l.Hub, l.Dist, k)
				}
				f.entries[i] = packEntry(l.Hub, units)
				i++
			}
		}
		f.offsets[n] = uint32(i)
		fs[h] = f
	}
	return fs, nil
}

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
func (f *FlatIndex) Labels(v int) Set { return runLabels(f.PackedRun(v), f.unitExp) }

// runLabels converts a packed run counting units of 2^-k into a Set.
func runLabels(run []uint64, k int) Set {
	s := make(Set, len(run))
	for i, e := range run {
		s[i] = L{Hub: entryHub(e), Dist: FromUnits(entryUnits(e), k)}
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
