// Package vheap holds the two priority queues of the shortest path
// searches here: a monotone radix heap (Ahuja, Mehlhorn, Orlin & Tarjan,
// "Faster algorithms for the shortest path problem", JACM 1990) keyed by
// uint64 distances over dense integer items, and Window, a circular window
// of buckets in front of such a heap.
//
// One search pops the heap directly: pll.Sequential, the reference builder,
// which is kept independent of the window. Every other search settles a
// bucket at a time from a window: internal/sssp's search behind every
// plain distance row, the trees of every pruned-Dijkstra builder
// (ptree.Tree, plant.Tree; one window per worker's ptree.Scratch), and
// internal/order's Brandes sample trees (one window per worker). A window
// parks the distances beyond its end on its heap and pulls them back with
// PopBelow; that is the heap's only other use.
//
// Keys are distances in units of the graph's 2^-k (internal/graph). An
// entry sits in bucket bits.Len64(key ^ floor), where floor is the last
// key Pop returned, so bucket 0 holds the keys equal to the floor
// and each higher bucket a range above the ones below. When bucket 0 runs
// dry, the lowest non-empty bucket is redistributed around its minimum,
// and every entry moves to a strictly lower bucket: an entry is touched at
// most 65 times, however many vertices are queued.
//
// The contract that makes this correct is monotonicity: no key may be pushed
// below the floor. Push panics on a key below the floor instead of
// answering wrongly later. Every Dijkstra here meets it because it pushes
// d(u) + w(u,v) after popping d(u), and graph stores every weight as a
// positive count.
//
// Decrease-key is lazy: the item's live key is kept per item, a decrease
// adds a second entry, and the superseded one is dropped when its bucket is
// redistributed. A popped item stays popped until Clear: pushing it again is
// a no-op, as is any push not below an item's live key, which is Dijkstra's
// relaxation rule. So the heap returns each item at most once per Clear.
package vheap

import (
	"math"
	"math/bits"
)

// Heap is a monotone min-heap over items 0..n-1. The zero value is not
// usable; call New. A Heap is not safe for concurrent use: every algorithm
// here owns one heap per worker.
type Heap struct {
	floor    uint64      // the last key Pop returned
	size     int         // items queued
	occupied uint64      // bit b-1 set iff buckets[b] (b ≥ 1) holds entries
	buckets  [65][]entry // buckets[b]: entries whose key differs from floor first at bit b-1
	// keys[item] is unpushed until the item is pushed, then its live key
	// while queued, then the key it was popped with. An entry is live iff
	// its key is its item's key: a popped item's other entries are all
	// above its popped key, and every later push is at or above it, so
	// Push leaves a popped item alone.
	keys    []uint64
	touched []int32 // items pushed since Clear; capacity n, so it never grows
}

type entry struct {
	key  uint64 // the key this entry was pushed with
	item int32
}

// unpushed is the key of an item not pushed since Clear: above every
// distance a search computes (graph.Unreached), so any push is a decrease.
const unpushed = math.MaxUint64

// bucketCap is each bucket's initial capacity, from one allocation: a
// heap reused across trees grows only where a tree queues more than any
// before it.
const bucketCap = 64

// New returns an empty heap capable of holding items in [0, n).
func New(n int) *Heap {
	h := &Heap{keys: make([]uint64, n), touched: make([]int32, 0, n)}
	for i := range h.keys {
		h.keys[i] = unpushed
	}
	c := min(n, bucketCap)
	arena := make([]entry, len(h.buckets)*c)
	for b := range h.buckets {
		h.buckets[b] = arena[b*c : b*c : (b+1)*c]
	}
	return h
}

// Len returns the number of items currently queued.
func (h *Heap) Len() int { return h.size }

// Empty reports whether the heap holds no items.
func (h *Heap) Empty() bool { return h.size == 0 }

// Push queues item with the given key, or decreases its key if the item is
// queued with a larger one. Pushing an item queued with a key that is not
// larger, or one already popped since the last Clear, is a no-op. It
// reports whether the heap changed. Push panics if key is below the last
// key Pop returned.
func (h *Heap) Push(item int, k uint64) bool {
	if k < h.floor {
		panic("vheap: key below the last popped key")
	}
	old := h.keys[item]
	if k >= old {
		return false
	}
	if old == unpushed {
		h.touched = append(h.touched, int32(item))
		h.size++
	}
	h.keys[item] = k
	h.add(entry{k, int32(item)})
	return true
}

func (h *Heap) add(e entry) {
	b := bits.Len64(e.key ^ h.floor)
	h.buckets[b] = append(h.buckets[b], e)
	if b > 0 {
		h.occupied |= 1 << (b - 1)
	}
}

// Pop removes and returns the item with the minimum key. Among equal keys
// the order is unspecified but deterministic. It must only be called on a
// non-empty heap.
//
// Bucket 0 never holds a superseded entry: its keys equal the floor, which
// no decrease can undercut, and an item popped from it leaves it.
func (h *Heap) Pop() (item int, key uint64) {
	if h.size == 0 {
		panic("vheap: Pop on an empty heap")
	}
	for len(h.buckets[0]) == 0 {
		h.spill(unpushed)
	}
	b := h.buckets[0]
	e := b[len(b)-1]
	h.buckets[0] = b[:len(b)-1]
	h.size--
	return int(e.item), e.key
}

// PopBelow pops the minimum item, as Pop does, if its key is below lim.
// Otherwise it reports false and leaves every item queued: the floor may
// rise, but never above lim, so a key at or above lim may still be
// pushed. A caller that parks the keys beyond a moving window here pulls
// them back, in key order, as the window's end passes them.
func (h *Heap) PopBelow(lim uint64) (item int, key uint64, ok bool) {
	for len(h.buckets[0]) == 0 {
		if h.occupied == 0 {
			return 0, 0, false
		}
		// Every key in the lowest occupied bucket b shares the floor's bits
		// above bit b-1 and has bit b-1 set.
		b := bits.TrailingZeros64(h.occupied) + 1
		if h.floor>>(b-1)<<(b-1)|1<<(b-1) >= lim {
			return 0, 0, false
		}
		h.spill(lim)
	}
	if h.floor >= lim {
		return 0, 0, false
	}
	item, key = h.Pop()
	return item, key, true
}

// spill empties the lowest occupied bucket b into lower ones around a new
// floor: its least live key, or limit if that is lower. limit must lie in
// bucket b's range or above it; inside it, it too sends every entry of b to
// a strictly lower bucket, and it leaves every higher bucket's entries where
// they are. A bucket whose entries were all superseded is dropped, and the
// floor stays.
func (h *Heap) spill(limit uint64) {
	b := bits.TrailingZeros64(h.occupied) + 1
	src := h.buckets[b]
	h.buckets[b] = src[:0]
	h.occupied &^= 1 << (b - 1)
	floor := uint64(unpushed)
	for _, e := range src {
		if e.key < floor && h.keys[e.item] == e.key {
			floor = e.key
		}
	}
	if floor == unpushed {
		return // every entry was superseded
	}
	h.floor = min(floor, limit)
	for _, e := range src {
		if h.keys[e.item] == e.key {
			h.add(e)
		}
	}
}

// Clear empties the heap, leaving capacity in place so a worker can reuse
// one heap across many shortest path trees (the
// initialization-touches-only-modified-state trick of Algorithm 1's
// footnote). It costs O(items pushed since the last Clear).
func (h *Heap) Clear() {
	for _, item := range h.touched {
		h.keys[item] = unpushed
	}
	h.touched = h.touched[:0]
	h.buckets[0] = h.buckets[0][:0]
	for m := h.occupied; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m) + 1
		h.buckets[b] = h.buckets[b][:0]
	}
	h.occupied, h.floor, h.size = 0, 0, 0
}
