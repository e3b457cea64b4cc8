package label

import (
	"sync"
	"sync/atomic"
)

// ConcurrentStore is a label table that many construction workers append to
// and query concurrently, with one lock per vertex. This is the locking
// regime the paper ascribes to paraPLL and LCC ("have to lock label sets
// before reading because label sets are dynamic arrays that can undergo
// memory (de)allocation when a label is appended", §4.2) — and the cost GLL
// avoids with its immutable global table.
//
// A read of a vertex whose set is empty takes no lock: each slot publishes
// its length atomically, and a reader that sees 0 is ordered before every
// append it missed, as if it had taken the lock first. GLL's local table is
// mostly empty, so most of its pruning queries return here.
type ConcurrentStore struct {
	slots []slot
	locks atomic.Int64 // lock acquisitions, counted when profiling is enabled
	prof  bool
}

// slot is one vertex's set, its lock, and its length as readers may see it
// without the lock.
type slot struct {
	mu  sync.Mutex
	n   atomic.Int32
	set Set
}

// NewConcurrentStore returns an empty store over n vertices.
func NewConcurrentStore(n int) *ConcurrentStore {
	return &ConcurrentStore{slots: make([]slot, n)}
}

// EnableProfiling turns on lock-acquisition counting (used by the two-table
// ablation experiment).
func (cs *ConcurrentStore) EnableProfiling() { cs.prof = true }

// LockCount returns the number of per-vertex lock acquisitions observed
// since profiling was enabled.
func (cs *ConcurrentStore) LockCount() int64 { return cs.locks.Load() }

// lock takes v's lock and returns its slot.
func (cs *ConcurrentStore) lock(v int) *slot {
	if cs.prof {
		cs.locks.Add(1)
	}
	s := &cs.slots[v]
	s.mu.Lock()
	return s
}

// NumVertices returns the vertex count.
func (cs *ConcurrentStore) NumVertices() int { return len(cs.slots) }

// Append adds label word l to v's set (unsorted; callers sort what Drain
// returns).
func (cs *ConcurrentStore) Append(v int, l uint64) {
	s := cs.lock(v)
	s.set = append(s.set, l)
	s.n.Store(int32(len(s.set)))
	s.mu.Unlock()
}

// QueryAgainst runs hd.QueryAgainst(labels of v) under v's lock, or reports
// false without locking when v has no labels.
func (cs *ConcurrentStore) QueryAgainst(hd *HubTable, v int, delta uint64) bool {
	if cs.slots[v].n.Load() == 0 {
		return false
	}
	s := cs.lock(v)
	r := hd.QueryAgainst(s.set, delta)
	s.mu.Unlock()
	return r
}

// AddTo adds v's current labels to hd under v's lock: the root-hashing step
// of a concurrent tree ("hashing root labels prior to launching an SPT
// construction", §3) — labels appended to v afterwards are not consulted.
// An empty set is skipped without locking.
func (cs *ConcurrentStore) AddTo(hd *HubTable, v int) {
	if cs.slots[v].n.Load() == 0 {
		return
	}
	s := cs.lock(v)
	for _, l := range s.set {
		hd.Add(l)
	}
	s.mu.Unlock()
}

// Drain moves every vertex's pending labels out of the store, leaving it
// empty but reusable, without sorting. The caller owns the returned sets;
// Recycle hands their storage back. Drain is called once construction
// workers have quiesced and takes no locks.
func (cs *ConcurrentStore) Drain() []Set {
	out := make([]Set, len(cs.slots))
	for v := range cs.slots {
		s := &cs.slots[v]
		out[v], s.set = s.set, nil
		s.n.Store(0)
	}
	return out
}

// Recycle gives the store the capacity of sets Drain returned, so the next
// round of appends refills them instead of growing sets from nil. The caller
// gives up sets: their contents are overwritten by later appends. The store
// must be empty and quiescent, as right after Drain.
func (cs *ConcurrentStore) Recycle(sets []Set) {
	for v, s := range sets {
		cs.slots[v].set = s[:0]
	}
}
