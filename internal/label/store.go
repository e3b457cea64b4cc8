package label

import "sync"

// ConcurrentStore is a label table that many construction workers append to
// and query concurrently, with one lock per vertex. This is the locking
// regime the paper ascribes to paraPLL and LCC ("have to lock label sets
// before reading because label sets are dynamic arrays that can undergo
// memory (de)allocation when a label is appended", §4.2) — and the cost GLL
// avoids with its immutable global table.
type ConcurrentStore struct {
	mu    []sync.Mutex
	sets  []Set
	locks int64 // lock acquisitions, counted when profiling is enabled
	prof  bool
	pmu   sync.Mutex
}

// NewConcurrentStore returns an empty store over n vertices.
func NewConcurrentStore(n int) *ConcurrentStore {
	return &ConcurrentStore{mu: make([]sync.Mutex, n), sets: make([]Set, n)}
}

// EnableProfiling turns on lock-acquisition counting (used by the two-table
// ablation experiment).
func (cs *ConcurrentStore) EnableProfiling() { cs.prof = true }

// LockCount returns the number of per-vertex lock acquisitions observed
// since profiling was enabled.
func (cs *ConcurrentStore) LockCount() int64 {
	cs.pmu.Lock()
	defer cs.pmu.Unlock()
	return cs.locks
}

func (cs *ConcurrentStore) countLock() {
	if cs.prof {
		cs.pmu.Lock()
		cs.locks++
		cs.pmu.Unlock()
	}
}

// NumVertices returns the vertex count.
func (cs *ConcurrentStore) NumVertices() int { return len(cs.sets) }

// Append adds a label to v's set (unsorted; callers sort when sealing).
func (cs *ConcurrentStore) Append(v int, l L) {
	cs.countLock()
	cs.mu[v].Lock()
	cs.sets[v] = append(cs.sets[v], l)
	cs.mu[v].Unlock()
}

// QueryAgainst runs hd.QueryAgainst(labels of v) under v's lock.
func (cs *ConcurrentStore) QueryAgainst(hd *HashDist, v int, delta float64) bool {
	cs.countLock()
	cs.mu[v].Lock()
	r := hd.QueryAgainst(cs.sets[v], delta)
	cs.mu[v].Unlock()
	return r
}

// AddTo adds v's current labels to hd under v's lock: the root-hashing step
// of a concurrent tree ("hashing root labels prior to launching an SPT
// construction", §3) — labels appended to v afterwards are not consulted.
func (cs *ConcurrentStore) AddTo(hd *HashDist, v int) {
	cs.countLock()
	cs.mu[v].Lock()
	for _, l := range cs.sets[v] {
		hd.Add(l.Hub, l.Dist)
	}
	cs.mu[v].Unlock()
}

// Seal sorts every set and hands the storage over as an Index. The store
// must not be used afterwards. Seal is called once construction workers have
// quiesced, so it takes no locks.
func (cs *ConcurrentStore) Seal() *Index {
	for _, s := range cs.sets {
		s.Sort()
	}
	ix := &Index{sets: cs.sets}
	cs.sets = nil
	return ix
}

// Drain moves every vertex's pending labels out of the store (leaving it
// empty but reusable) without sorting. GLL's superstep commit uses it to
// move the local table into the cleaning pass.
func (cs *ConcurrentStore) Drain() []Set {
	out := make([]Set, len(cs.sets))
	for v := range cs.sets {
		cs.mu[v].Lock()
		out[v] = cs.sets[v]
		cs.sets[v] = nil
		cs.mu[v].Unlock()
	}
	return out
}
