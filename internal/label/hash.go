package label

// HashDist is the "hash of the root's labels" used by the pruning distance
// query of Algorithm 1 (line 1: LR = hash(L_h)). It is a dense array of
// distances indexed by hub id with a version stamp per slot, so loading a
// root's labels, O(1) lookups, and clearing are all cheap and allocation
// free across the thousands of SPTs a worker builds.
//
// A HashDist is owned by a single worker goroutine and must not be shared.
type HashDist struct {
	dist    []float64
	version []uint32
	current uint32
}

// NewHashDist returns a HashDist over hub ids in [0, n).
func NewHashDist(n int) *HashDist {
	return &HashDist{
		dist:    make([]float64, n),
		version: make([]uint32, n),
		// current starts above the zeroed version stamps so a fresh table
		// is empty (version[hub] == current would otherwise hold for
		// every hub with distance 0).
		current: 1,
	}
}

// Load clears the table and inserts every label of s.
func (h *HashDist) Load(s Set) {
	h.Reset()
	for _, l := range s {
		h.dist[l.Hub] = l.Dist
		h.version[l.Hub] = h.current
	}
}

// Add inserts or improves a single entry without clearing.
func (h *HashDist) Add(hub uint32, d float64) {
	if h.version[hub] == h.current {
		if d < h.dist[hub] {
			h.dist[hub] = d
		}
		return
	}
	h.dist[hub] = d
	h.version[hub] = h.current
}

// Get returns the stored distance for hub, if present.
func (h *HashDist) Get(hub uint32) (float64, bool) {
	if h.version[hub] == h.current {
		return h.dist[hub], true
	}
	return Infinity, false
}

// Reset clears the table in O(1) by bumping the version stamp. After 2^32
// resets the stamps are rewound explicitly to stay correct.
func (h *HashDist) Reset() {
	h.current++
	if h.current == 0 { // wrapped: invalidate everything the slow way
		for i := range h.version {
			h.version[i] = 0
		}
		h.current = 1
	}
}

// QueryAgainst answers the pruning distance query DQ(v, h, δ) of Algorithm 1
// lines 11–14: does some hub h' appear in both the loaded root labels LR and
// in lv with d(v,h') + d(h,h') ≤ δ? It returns true if such a witness
// exists (meaning the tree can be pruned at v).
func (h *HashDist) QueryAgainst(lv Set, delta float64) bool {
	for _, l := range lv {
		if h.version[l.Hub] == h.current && l.Dist+h.dist[l.Hub] <= delta {
			return true
		}
	}
	return false
}

// QueryAgainstBounded is QueryAgainst restricted to hubs ranked above bound
// (hub id < bound). Figure 4's restricted-pruning experiment and the common
// label table of §5.3 use it.
func (h *HashDist) QueryAgainstBounded(lv Set, delta float64, bound uint32) bool {
	for _, l := range lv {
		if l.Hub >= bound {
			break // lv is sorted by hub id
		}
		if h.version[l.Hub] == h.current && l.Dist+h.dist[l.Hub] <= delta {
			return true
		}
	}
	return false
}
