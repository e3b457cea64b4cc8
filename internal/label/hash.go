package label

// absent marks a hub the table does not hold. It is far above any sum of
// two label distances (below 2^33 units), and a query compares against
// min(δ, absent−1): a present hub covers exactly when its sum is at most δ,
// and an absent one never does, for every δ up to 2^64−1.
const absent = 1 << 63

// HashDist is the "hash of the root's labels" used by the pruning distance
// query of Algorithm 1 (line 1: LR = hash(L_h)): one dense array of unit
// distances indexed by hub id, absent where the root has no label, so the
// query's test l.Dist + dist[l.Hub] ≤ δ needs no presence check — one
// dependent load and one branch per scanned entry. The loaded hubs are
// listed, and clearing walks the list (a root holds tens of labels), so
// loading, lookups and clearing stay allocation free across the thousands
// of SPTs a worker builds.
//
// A HashDist is owned by a single worker goroutine and must not be shared.
type HashDist struct {
	dist   []uint64
	loaded []uint32 // hubs whose slot is present, in insertion order
}

// NewHashDist returns a HashDist over hub ids in [0, n).
func NewHashDist(n int) *HashDist {
	h := &HashDist{dist: make([]uint64, n)}
	for i := range h.dist {
		h.dist[i] = absent
	}
	return h
}

// Load clears the table and inserts every label of s.
func (h *HashDist) Load(s Set) {
	h.Reset()
	for _, l := range s {
		h.dist[l.Hub] = uint64(l.Dist)
		h.loaded = append(h.loaded, l.Hub)
	}
}

// Add inserts or improves a single entry without clearing.
func (h *HashDist) Add(hub, d uint32) {
	old := h.dist[hub]
	if uint64(d) >= old {
		return
	}
	if old == absent {
		h.loaded = append(h.loaded, hub)
	}
	h.dist[hub] = uint64(d)
}

// Get returns the stored distance for hub, if present.
func (h *HashDist) Get(hub uint32) (uint32, bool) {
	if d := h.dist[hub]; d != absent {
		return uint32(d), true
	}
	return 0, false
}

// Reset clears the table in O(entries loaded since the last Reset).
func (h *HashDist) Reset() {
	for _, hub := range h.loaded {
		h.dist[hub] = absent
	}
	h.loaded = h.loaded[:0]
}

// QueryAgainst answers the pruning distance query DQ(v, h, δ) of Algorithm 1
// lines 11–14: does some hub h' appear in both the loaded root labels LR and
// in lv with d(v,h') + d(h,h') ≤ δ? It returns true if such a witness
// exists (meaning the tree can be pruned at v).
func (h *HashDist) QueryAgainst(lv Set, delta uint64) bool {
	dist, d := h.dist, min(delta, absent-1)
	for _, l := range lv {
		if uint64(l.Dist)+dist[l.Hub] <= d {
			return true
		}
	}
	return false
}

// QueryAgainstBounded is QueryAgainst restricted to hubs ranked above bound
// (hub id < bound). Figure 4's restricted-pruning experiment and the common
// label table of §5.3 use it.
func (h *HashDist) QueryAgainstBounded(lv Set, delta uint64, bound uint32) bool {
	dist, d := h.dist, min(delta, absent-1)
	for _, l := range lv {
		if l.Hub >= bound {
			break // lv is sorted by hub id
		}
		if uint64(l.Dist)+dist[l.Hub] <= d {
			return true
		}
	}
	return false
}
