package chl

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Answer is one cached point-to-point query result: the exact distance,
// the witness hub (an original vertex id, meaningful only when
// Reachable), and reachability. Unreachable answers (Dist == Infinity)
// are cached too — a fruitless full join over two label runs is exactly
// the work worth not repeating.
type Answer struct {
	Dist      float64
	Hub       int
	Reachable bool
}

// Cache is a sharded, bounded LRU cache of point-to-point query answers.
// Keys are vertex pairs: a cache fronting an undirected index
// canonicalizes them (NewCache — (u,v) and (v,u) share an entry), while
// one fronting a directed index keys on ordered pairs (NewDirectedCache
// — d(u→v) and d(v→u) are different answers and must never alias). The
// key is hashed to one of P power-of-two shards, each an independently
// locked map + intrusive LRU list, so concurrent serving workers contend
// only when they collide on a shard — P scales with GOMAXPROCS.
// Hit/miss counters are lock-free.
//
// A Cache holds answers from exactly one index generation. It has no
// invalidation API on purpose: replacing the index means starting a new
// Cache (Server builds one per Snapshot), which is what makes stale
// answers across a hot swap structurally impossible rather than merely
// unlikely.
//
// The keyspace is pair answers, and nothing else. The rich workloads
// ride this discipline rather than bending it: /paths reads the cache
// only on a tier with no graph, for the one pair query behind its witness
// triple (a walk reads labels or a search, never cached answers), /knn
// deposits its results as the (source, neighbor) pair answers they are,
// and /matrix deliberately stays out. No workload ever mints a key from
// a non-pair parameter like k — a /knn for (u=3, k=5) and a /dist for
// (3,5) can therefore never collide (the singleflight layer keeps them
// apart the same way; see flightKind).
type Cache struct {
	shards   []cacheShard
	mask     uint64
	directed bool
	hits     atomic.Int64
	misses   atomic.Int64
}

type cacheShard struct {
	mu  sync.Mutex
	m   map[uint64]*cacheEntry
	cap int
	// Intrusive doubly-linked LRU ring through a sentinel: head.next is
	// most recent, head.prev least recent. No container/list: one
	// allocation per entry, no interface boxing.
	head cacheEntry
}

type cacheEntry struct {
	key        uint64
	a          Answer
	prev, next *cacheEntry
}

// NewCache returns a cache bounded to roughly capacity answers in total,
// spread over a power-of-two number of shards sized to the machine's
// parallelism, keyed on unordered pairs — for engines over undirected
// indexes. Capacities below one shard collapse to a single shard;
// capacity <= 0 returns nil, which every consumer treats as "no cache".
func NewCache(capacity int) *Cache { return newCache(capacity, false) }

// NewDirectedCache is NewCache keyed on ordered pairs, for engines over
// directed indexes: an unordered cache in front of a directed engine
// would serve d(v→u) for d(u→v).
func NewDirectedCache(capacity int) *Cache { return newCache(capacity, true) }

func newCache(capacity int, directed bool) *Cache {
	if capacity <= 0 {
		return nil
	}
	shards := 1
	for shards < runtime.GOMAXPROCS(0)*4 && shards < 256 {
		shards <<= 1
	}
	if capacity < shards {
		shards = 1
	}
	c := &Cache{shards: make([]cacheShard, shards), mask: uint64(shards - 1), directed: directed}
	per := (capacity + shards - 1) / shards
	for i := range c.shards {
		s := &c.shards[i]
		s.m = make(map[uint64]*cacheEntry, per)
		s.cap = per
		s.head.next, s.head.prev = &s.head, &s.head
	}
	return c
}

// pairKey packs the pair into one word — canonicalized for undirected
// caches, order-preserving for directed ones; vertex ids fit in 32 bits
// by the flat format's construction.
func (c *Cache) pairKey(u, v int) uint64 {
	if !c.directed && u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// Directed reports whether the cache keys on ordered pairs.
func (c *Cache) Directed() bool { return c != nil && c.directed }

// splitmix64 finalizer: shard selection must not correlate with the key's
// low bits (consecutive vertex ids would pile onto one shard).
func mixKey(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	return k ^ k>>31
}

// Get returns the cached answer for the pair (u,v) — unordered for
// undirected caches, ordered for directed ones — and whether it was
// present, promoting the entry to most-recently-used. Safe for
// concurrent use.
func (c *Cache) Get(u, v int) (Answer, bool) { return c.getIf(u, v, nil) }

// getIf is Get for a caller that can use only some answers: an entry
// usable refuses is neither returned nor promoted, and counts as a miss.
// A nil usable accepts every entry.
func (c *Cache) getIf(u, v int, usable func(Answer) bool) (Answer, bool) {
	key := c.pairKey(u, v)
	s := &c.shards[mixKey(key)&c.mask]
	s.mu.Lock()
	e, ok := s.m[key]
	if !ok || usable != nil && !usable(e.a) {
		s.mu.Unlock()
		c.misses.Add(1)
		return Answer{}, false
	}
	e.unlink()
	s.pushFront(e)
	a := e.a
	s.mu.Unlock()
	c.hits.Add(1)
	return a, true
}

// Put stores the answer for the pair (u,v) under the cache's key
// ordering, evicting the shard's least-recently-used entry when the
// shard is full. Safe for concurrent use.
func (c *Cache) Put(u, v int, a Answer) {
	key := c.pairKey(u, v)
	s := &c.shards[mixKey(key)&c.mask]
	s.mu.Lock()
	if e, ok := s.m[key]; ok {
		e.a = a
		e.unlink()
		s.pushFront(e)
		s.mu.Unlock()
		return
	}
	if len(s.m) >= s.cap {
		lru := s.head.prev
		lru.unlink()
		delete(s.m, lru.key)
	}
	e := &cacheEntry{key: key, a: a}
	s.m[key] = e
	s.pushFront(e)
	s.mu.Unlock()
}

func (e *cacheEntry) unlink() {
	e.prev.next = e.next
	e.next.prev = e.prev
}

func (s *cacheShard) pushFront(e *cacheEntry) {
	e.prev = &s.head
	e.next = s.head.next
	e.next.prev = e
	s.head.next = e
}

// Len returns the number of cached answers across all shards.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// CacheStats is a point-in-time snapshot of a cache's counters, as
// reported under "cache" by the /stats endpoint.
type CacheStats struct {
	Capacity int   `json:"capacity"`
	Entries  int   `json:"entries"`
	Shards   int   `json:"shards"`
	Directed bool  `json:"directed,omitempty"`
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
}

// Stats returns the cache's current size and cumulative hit/miss
// counters. Counters are read lock-free, so under concurrent traffic the
// snapshot is approximate by a few operations.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return CacheStats{
		Capacity: c.shards[0].cap * len(c.shards),
		Entries:  c.Len(),
		Shards:   len(c.shards),
		Directed: c.directed,
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
	}
}
