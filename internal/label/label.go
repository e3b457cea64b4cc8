// Package label defines hub labels and the data structures that hold them:
// per-vertex label vectors of packed words, a queryable Index, the one hub
// table both the construction's distance queries (the LR = hash(L_h) of
// Algorithm 1) and the serving hash joins probe (table.go), a lock-striped
// concurrent store for parallel construction, the frozen Stores —
// fixed-width packed words (flat.go) or one delta+varint stream per vertex
// (compressed.go), joined by the kernels of join.go — and the one on-disk
// container (container.go), which holds only Stores.
//
// The slice form (Index) is never persisted. The builders emit it,
// internal/exp's figures and internal/query's modeled engines read it,
// and the bench/ scoreboard builds with it; Freeze packs it for
// everything else.
//
// Everything in this package operates in rank space: vertex ids have been
// permuted so that id 0 is the highest-ranked vertex and R(u) > R(v) ⇔
// u < v. Label vectors are kept sorted by hub id, which is therefore also
// sorted by descending rank — the order both the merge-join query and the
// cleaning queries need.
package label

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Infinity mirrors graph.Infinity for query results on disconnected pairs.
const Infinity = math.MaxFloat64

// Bytes is the size of one label: a 4-byte hub id plus a 4-byte distance.
// All communication-volume and memory numbers in the experiment harness
// are multiples of this.
const Bytes = 8

// A label (h, d(v,h)) of Table 1 of the paper is one packed word,
// hub<<32 | units: the hub id in the high 32 bits and the distance in the
// low 32, as a count of units 2^-k of the graph the labels were built on
// (the Index's UnitExp). Every builder counts exactly, and refuses a label
// of 2^32 units or more (Units). Because the hub fills the high bits, word
// order is hub order, with ties (which appear only transiently in
// construction) broken by distance. A builder's Set, a frozen run, a shard
// row and a kernel input are the same bytes.

// Pack returns the label word of hub at the given distance in units.
func Pack(hub, units uint32) uint64 { return uint64(hub)<<32 | uint64(units) }

// Hub returns the hub id of label word e.
func Hub(e uint64) uint32 { return uint32(e >> 32) }

// Dist returns the distance of label word e, in units.
func Dist(e uint64) uint32 { return uint32(e) }

// DistError is a builder's refusal of a label it cannot hold: a distance
// of 2^32 units or more.
type DistError struct{ error }

// Units returns d, a tree's distance from hub to v in units of 2^-k, as a
// label distance. A tree that reaches 2^32 units or more cannot emit the
// label, so Units panics with a *DistError, which chl.Build returns as its
// error (ptree.ParallelFor and the cluster simulator carry it to the
// caller's goroutine).
func Units(v int, hub uint32, d uint64, k int) uint32 {
	if d >= 1<<32 {
		panic(&DistError{fmt.Errorf("label: vertex %d's label at hub %d (rank) has distance %v, which is not a whole number of units 2^-%d below 2^32; keep the graph's distances below 2^32 units (scale its weights down, or to coarser dyadic fractions)", v, hub, FromUnits(float64(d), k), k)})
	}
	return uint32(d)
}

// Set is the label vector of one vertex: label words sorted ascending,
// that is by hub (descending by rank).
type Set []uint64

// Sort orders the set ascending by hub id; ties (which appear only
// transiently in construction) keep the smaller distance first.
func (s Set) Sort() { slices.Sort(s) }

// IsSorted reports whether the set is sorted ascending by hub id with no
// duplicate hubs.
func (s Set) IsSorted() bool {
	for i := 1; i < len(s); i++ {
		if Hub(s[i-1]) >= Hub(s[i]) {
			return false
		}
	}
	return true
}

// Find returns the distance to hub h in units, if present.
func (s Set) Find(h uint32) (uint32, bool) {
	i := sort.Search(len(s), func(i int) bool { return Hub(s[i]) >= h })
	if i < len(s) && Hub(s[i]) == h {
		return Dist(s[i]), true
	}
	return 0, false
}

// Clone returns a copy of the set.
func (s Set) Clone() Set { return append(Set(nil), s...) }

// Merge merges the sorted set other into s (both sorted, disjoint hubs are
// the common case; on a duplicate hub the smaller distance, and so the
// smaller word, wins) and returns the merged sorted set.
func (s Set) Merge(other Set) Set {
	if len(other) == 0 {
		return s
	}
	if len(s) == 0 {
		return other.Clone()
	}
	out := make(Set, 0, len(s)+len(other))
	i, j := 0, 0
	for i < len(s) && j < len(other) {
		switch hi, hj := Hub(s[i]), Hub(other[j]); {
		case hi < hj:
			out = append(out, s[i])
			i++
		case hi > hj:
			out = append(out, other[j])
			j++
		default:
			out = append(out, min(s[i], other[j]))
			i++
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, other[j:]...)
	return out
}

// Validate checks structural invariants (sortedness, a zero self label,
// hub ids < n) and returns a descriptive error on the first violation.
// Tests call it on every produced labeling.
func (s Set) Validate(owner int, n int) error {
	for i, l := range s {
		if int(Hub(l)) >= n {
			return fmt.Errorf("label: vertex %d has out-of-range hub %d (n=%d)", owner, Hub(l), n)
		}
		if i > 0 && Hub(s[i-1]) >= Hub(l) {
			return fmt.Errorf("label: vertex %d labels not strictly sorted at %d", owner, i)
		}
		if int(Hub(l)) == owner && Dist(l) != 0 {
			return fmt.Errorf("label: vertex %d self label has distance %v", owner, Dist(l))
		}
	}
	return nil
}
