package label

import "sort"

// absent marks a hub the table does not hold. It is far above any sum of
// two label distances (below 2^33 units), so one test serves both probes:
// the builders' cover probe compares a sum against min(δ, absent−1), which
// a present hub passes exactly when its sum is at most δ and an absent one
// never does, for every δ up to 2^64−1; the serving min-probe starts its
// best at absent, which no sum through an absent hub can beat.
const absent = 1 << 63

// HubTable is the hash of one label run that a list intersection probes
// (Algorithm 1, line 1: LR = hash(L_h)): one dense array of unit counts
// indexed by hub id, absent where the run has no label. A probe reads
// slot[hub] + d(e) per entry with no presence check. The cover probe does
// that eight entries at a time where AVX-512F is present (probe_amd64.s
// gathers the eight slots in one instruction) and one at a time in
// coverScalar otherwise; the min-probe is scalar. Both sides of the stack
// probe the table:
//
//   - the builders' cover probe (QueryAgainst, QueryAgainstBounded and
//     ConcurrentStore's) asks whether some sum is at most δ. The builders
//     fill the table with Load and Add, which list the hubs they set, and
//     Reset walks that list (a root holds tens of labels), so loading,
//     probing and clearing stay allocation free across the thousands of
//     trees a worker builds;
//   - the serving min-probe (JoinPackedWith, RunScatter.Probe and
//     ProbeCompressed) looks for the smallest sum. It scatters a run and
//     clears it by walking the same run, so a table is all absent between
//     kernel calls.
//
// A table weighs 8 bytes per vertex and is owned by one goroutine.
type HubTable struct {
	slot   []uint64
	loaded []uint32 // hubs Load and Add set, in insertion order
}

// NewHubTable returns a table over hub ids in [0, n), all absent.
func NewHubTable(n int) *HubTable {
	t := &HubTable{slot: make([]uint64, n)}
	for i := range t.slot {
		t.slot[i] = absent
	}
	return t
}

// Load clears the table and inserts every label of s.
func (t *HubTable) Load(s Set) {
	t.Reset()
	for _, e := range s {
		t.slot[e>>32] = uint64(Dist(e))
		t.loaded = append(t.loaded, Hub(e))
	}
}

// Add inserts or improves a single label without clearing.
func (t *HubTable) Add(e uint64) {
	hub, d := Hub(e), uint64(Dist(e))
	old := t.slot[hub]
	if d >= old {
		return
	}
	if old == absent {
		t.loaded = append(t.loaded, hub)
	}
	t.slot[hub] = d
}

// Get returns the stored distance for hub, if present.
func (t *HubTable) Get(hub uint32) (uint32, bool) {
	if d := t.slot[hub]; d != absent {
		return uint32(d), true
	}
	return 0, false
}

// Reset clears what Load and Add set, in O(labels set since the last
// Reset).
func (t *HubTable) Reset() {
	for _, hub := range t.loaded {
		t.slot[hub] = absent
	}
	t.loaded = t.loaded[:0]
}

// QueryAgainst answers the pruning distance query DQ(v, h, δ) of Algorithm 1
// lines 11–14: does some hub h' appear in both the loaded root labels LR and
// in lv with d(v,h') + d(h,h') ≤ δ? It returns true if such a witness
// exists (meaning the tree can be pruned at v). lv need not be sorted.
// The vector kernel runs where the platform has one (coverVector), and
// coverScalar over whatever it leaves.
func (t *HubTable) QueryAgainst(lv Set, delta uint64) bool {
	slot, d := t.slot, min(delta, absent-1)
	hit, done := coverVector(slot, lv, d)
	return hit || coverScalar(slot, lv[done:], d)
}

// QueryAgainstBounded is QueryAgainst restricted to hubs ranked above bound
// (hub id < bound), over an lv sorted by hub id. Figure 4's
// restricted-pruning experiment and the common label table of §5.3 use it.
// The cut is read off the last entry, and searched for only when that entry
// is past the bound.
func (t *HubTable) QueryAgainstBounded(lv Set, delta uint64, bound uint32) bool {
	if n := len(lv); n > 0 && Hub(lv[n-1]) >= bound {
		lv = lv[:sort.Search(n, func(i int) bool { return Hub(lv[i]) >= bound })]
	}
	return t.QueryAgainst(lv, delta)
}

// coverScalar is the cover probe one entry at a time: is some
// Dist(e)+slot[Hub(e)] at most d? It is the reference every vector kernel
// is held to, and panics on a hub past the table.
func coverScalar(slot []uint64, lv Set, d uint64) bool {
	for _, e := range lv {
		if uint64(Dist(e))+slot[e>>32] <= d {
			return true
		}
	}
	return false
}

// scatter loads run into the slots; clear undoes exactly that.
func (t *HubTable) scatter(run []uint64) {
	slot := t.slot
	// Ranging over the run bound-checks nothing; table stores stay
	// checked (hub ids come from input data).
	for _, e := range run {
		slot[e>>32] = uint64(Dist(e))
	}
}

func (t *HubTable) clear(run []uint64) {
	slot := t.slot
	for _, e := range run {
		slot[e>>32] = absent
	}
}

// minProbe is the serving kernels' answer from the best sum a min-probe
// found: its distance in units and the witness hub, or Infinity and
// ok=false while best is still absent (no shared hub).
func minProbe(best uint64, hub uint32) (dist float64, _ uint32, ok bool) {
	if best >= absent {
		return Infinity, 0, false
	}
	return float64(best), hub, true
}
