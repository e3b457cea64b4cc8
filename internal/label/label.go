// Package label defines hub labels and the data structures that hold them:
// per-vertex label vectors, a queryable Index, a hash-join accelerator for
// the distance queries performed during label construction (the LR =
// hash(L_h) of Algorithm 1), a lock-striped concurrent store for parallel
// construction, the frozen Stores — fixed-width packed words (flat.go) or
// one delta+varint stream per vertex (compressed.go), joined by the
// kernels of join.go — and the one on-disk container (container.go),
// which holds only Stores.
//
// The slice form (Index) is never persisted. The builders emit it,
// internal/exp's figures and internal/query's modeled engines read it
// (FlatIndex.Thaw in the root package rebuilds one from a file), and the
// bench/ scoreboard builds with it; Freeze packs it for everything else.
//
// Everything in this package operates in rank space: vertex ids have been
// permuted so that id 0 is the highest-ranked vertex and R(u) > R(v) ⇔
// u < v. Label vectors are kept sorted by hub id, which is therefore also
// sorted by descending rank — the order both the merge-join query and the
// cleaning queries need.
package label

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Infinity mirrors graph.Infinity for query results on disconnected pairs.
const Infinity = math.MaxFloat64

// Bytes is the accounted size of one label: a 4-byte hub id plus an 8-byte
// distance. All communication-volume and memory numbers in the experiment
// harness are multiples of this.
const Bytes = 12

// L is a single hub label (h, d(v,h)) as defined in Table 1 of the paper.
type L struct {
	Hub  uint32
	Dist float64
}

// Set is the label vector of one vertex, sorted ascending by Hub
// (descending by rank).
type Set []L

// Sort orders the set ascending by hub id; ties (which appear only
// transiently in construction) keep the smaller distance first.
func (s Set) Sort() {
	slices.SortFunc(s, func(a, b L) int {
		if c := cmp.Compare(a.Hub, b.Hub); c != 0 {
			return c
		}
		return cmp.Compare(a.Dist, b.Dist)
	})
}

// IsSorted reports whether the set is sorted ascending by hub id with no
// duplicate hubs.
func (s Set) IsSorted() bool {
	for i := 1; i < len(s); i++ {
		if s[i-1].Hub >= s[i].Hub {
			return false
		}
	}
	return true
}

// Find returns the distance to hub h, if present.
func (s Set) Find(h uint32) (float64, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i].Hub >= h })
	if i < len(s) && s[i].Hub == h {
		return s[i].Dist, true
	}
	return Infinity, false
}

// Clone returns a copy of the set.
func (s Set) Clone() Set { return append(Set(nil), s...) }

// Merge merges the sorted set other into s (both sorted, disjoint hubs are
// the common case; on a duplicate hub the smaller distance wins) and returns
// the merged sorted set.
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
		switch {
		case s[i].Hub < other[j].Hub:
			out = append(out, s[i])
			i++
		case s[i].Hub > other[j].Hub:
			out = append(out, other[j])
			j++
		default:
			l := s[i]
			if other[j].Dist < l.Dist {
				l.Dist = other[j].Dist
			}
			out = append(out, l)
			i++
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, other[j:]...)
	return out
}

// QueryMerge answers a PPSD query by merge-joining two sorted label sets.
// It returns the minimum d(u,h)+d(h,v) over common hubs h, the hub achieving
// it, and ok=false if the sets share no hub. Among equal-distance witnesses
// the highest-ranked (smallest id) hub is returned, the "rank priority" used
// by Lemma 2.
func QueryMerge(a, b Set) (dist float64, hub uint32, ok bool) {
	dist = Infinity
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Hub < b[j].Hub:
			i++
		case a[i].Hub > b[j].Hub:
			j++
		default:
			if d := a[i].Dist + b[j].Dist; d < dist {
				dist, hub, ok = d, a[i].Hub, true
			}
			i++
			j++
		}
	}
	return dist, hub, ok
}

// Validate checks structural invariants (sortedness, finite positive
// distances except the self label, hub ids < n) and returns a descriptive
// error on the first violation. Tests call it on every produced labeling.
func (s Set) Validate(owner int, n int) error {
	for i, l := range s {
		if int(l.Hub) >= n {
			return fmt.Errorf("label: vertex %d has out-of-range hub %d (n=%d)", owner, l.Hub, n)
		}
		if i > 0 && s[i-1].Hub >= l.Hub {
			return fmt.Errorf("label: vertex %d labels not strictly sorted at %d", owner, i)
		}
		if math.IsNaN(l.Dist) || l.Dist < 0 || math.IsInf(l.Dist, 0) {
			return fmt.Errorf("label: vertex %d hub %d has bad distance %v", owner, l.Hub, l.Dist)
		}
		if int(l.Hub) == owner && l.Dist != 0 {
			return fmt.Errorf("label: vertex %d self label has distance %v", owner, l.Dist)
		}
	}
	return nil
}
