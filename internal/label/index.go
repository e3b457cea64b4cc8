package label

import (
	"fmt"
	"slices"
	"sort"
)

// Index is a complete hub labeling: one sorted label Set per vertex, in rank
// space, its distances counting units 2^-k of the graph it was built on.
// It answers PPSD queries by merge-join and is the unit of verification and
// statistics; Freeze packs it for persisting.
type Index struct {
	sets []Set
	k    int
}

// NewIndex returns an empty index over n vertices counting units of 2^-k.
func NewIndex(n, k int) *Index { return &Index{sets: make([]Set, n), k: k} }

// FromSets wraps per-vertex sets (takes ownership) counting units of 2^-k
// into an Index.
func FromSets(sets []Set, k int) *Index { return &Index{sets: sets, k: k} }

// UnitExp returns k: the index's distances count units of 2^-k, the unit
// of the graph it was built on.
func (ix *Index) UnitExp() int { return ix.k }

// NumVertices returns the number of vertices the index covers.
func (ix *Index) NumVertices() int { return len(ix.sets) }

// Labels returns the label set of v. The returned slice is the index's own
// storage; callers must not modify it.
func (ix *Index) Labels(v int) Set { return ix.sets[v] }

// SetLabels replaces the label set of v (takes ownership of s).
func (ix *Index) SetLabels(v int, s Set) { ix.sets[v] = s }

// Append adds label word l to v's set, keeping it sorted (amortized O(1)
// when hubs arrive in ascending order, as they do from rank-ordered SPTs);
// on a hub v already carries, the smaller distance stays.
func (ix *Index) Append(v int, l uint64) {
	s := ix.sets[v]
	if n := len(s); n == 0 || Hub(s[n-1]) < Hub(l) {
		ix.sets[v] = append(s, l)
		return
	}
	i := sort.Search(len(s), func(i int) bool { return Hub(s[i]) >= Hub(l) })
	if i < len(s) && Hub(s[i]) == Hub(l) {
		s[i] = min(s[i], l)
		return
	}
	ix.sets[v] = slices.Insert(s, i, l)
}

// Query answers the PPSD query between u and v: the minimum distance via a
// common hub, Infinity if none exists.
func (ix *Index) Query(u, v int) float64 {
	d, _, _ := ix.QueryHub(u, v)
	return d
}

// QueryHub answers the PPSD query and also reports the witness hub.
func (ix *Index) QueryHub(u, v int) (float64, uint32, bool) {
	d, hub, ok := JoinPacked(ix.sets[u], ix.sets[v])
	return FromUnits(d, ix.k), hub, ok
}

// Clone deep-copies the index.
func (ix *Index) Clone() *Index {
	c := NewIndex(len(ix.sets), ix.k)
	for v, s := range ix.sets {
		c.sets[v] = s.Clone()
	}
	return c
}

// Equal reports whether two indexes hold exactly the same labels (hubs and
// distances, in the same unit). It is how the tests assert that LCC, GLL,
// PLaNT, Hybrid and sequential PLL all emit the identical CHL.
func (ix *Index) Equal(other *Index) bool { return ix.Diff(other) == "" }

// Diff returns a human-readable description of the first difference between
// two indexes, or "" if they are equal. Test failure messages use it.
func (ix *Index) Diff(other *Index) string {
	if len(ix.sets) != len(other.sets) {
		return fmt.Sprintf("vertex counts differ: %d vs %d", len(ix.sets), len(other.sets))
	}
	if ix.k != other.k {
		return fmt.Sprintf("units differ: 2^-%d vs 2^-%d", ix.k, other.k)
	}
	for v := range ix.sets {
		a, b := ix.sets[v], other.sets[v]
		if len(a) != len(b) {
			return fmt.Sprintf("vertex %d: %d labels vs %d labels (%v vs %v)", v, len(a), len(b), a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				return fmt.Sprintf("vertex %d label %d: %v vs %v", v, i, a[i], b[i])
			}
		}
	}
	return ""
}

// Stats summarises an index the way the paper's tables do.
type Stats struct {
	Vertices    int
	TotalLabels int64
	ALS         float64 // average label size per vertex (Table 3)
	MaxLabels   int     // largest single label set
	Bytes       int64   // storage footprint at label.Bytes per label
}

// Stats computes summary statistics.
func (ix *Index) Stats() Stats {
	st := Stats{Vertices: len(ix.sets)}
	for _, s := range ix.sets {
		st.TotalLabels += int64(len(s))
		if len(s) > st.MaxLabels {
			st.MaxLabels = len(s)
		}
	}
	if st.Vertices > 0 {
		st.ALS = float64(st.TotalLabels) / float64(st.Vertices)
	}
	st.Bytes = st.TotalLabels * Bytes
	return st
}

// TotalLabels returns the number of labels across all vertices.
func (ix *Index) TotalLabels() int64 {
	var t int64
	for _, s := range ix.sets {
		t += int64(len(s))
	}
	return t
}

// Validate checks every set's structural invariants.
func (ix *Index) Validate() error {
	n := len(ix.sets)
	for v, s := range ix.sets {
		if err := s.Validate(v, n); err != nil {
			return err
		}
	}
	return nil
}

// LabelsPerHub computes, for each hub h, how many labels across the whole
// index name h as their hub — i.e. the size of the SPT-generated label batch
// per root. This is the series plotted in Figure 2 (labels generated by
// SPTs, ID of SPT_v is n − R(v), which in rank space is simply v).
func (ix *Index) LabelsPerHub() []int64 {
	counts := make([]int64, len(ix.sets))
	for _, s := range ix.sets {
		for _, l := range s {
			counts[Hub(l)]++
		}
	}
	return counts
}

// DirectedIndex pairs forward and backward labelings for directed graphs:
// Forward.Labels(v) holds hubs reachable *from* v, Backward.Labels(v) hubs
// that reach v. A query u→v joins Forward(u) with Backward(v). For
// undirected graphs the two halves coincide (§1 footnote 1 of the paper).
type DirectedIndex struct {
	Forward  *Index
	Backward *Index
}

// Query answers the directed PPSD query u→v.
func (dx *DirectedIndex) Query(u, v int) float64 {
	d, _, _ := JoinPacked(dx.Forward.Labels(u), dx.Backward.Labels(v))
	return FromUnits(d, dx.Forward.k)
}
