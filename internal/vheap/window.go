package vheap

import "math/bits"

// numBuckets is the width of the bucket window, a power of two.
const numBuckets = 1024

// Entry is a vertex queued in a bucket with the distance it was queued at.
// It is stale once the vertex's distance has improved again.
type Entry struct {
	D uint64
	V uint32
}

// Window is the bucket queue of the searches that settle a bucket at a
// time: a circular array of numBuckets buckets 2^s units wide, bucket
// number k in slot k mod numBuckets, with an occupancy bitmap, in front of
// a Heap.
//
// Bucket number k holds the distances d with d >> s = k. Start picks 2^s
// as the largest power of two not above the lightest arc, so a relaxation
// d + w from bucket k lands in bucket k+1 or later: when a bucket is
// reached, every distance in it is final. The window holds buckets cur to
// cur+numBuckets-1; a distance at or beyond their end is pushed on the
// heap instead. Each push is at or above the end, which only moves
// forward, so PopBelow pulls the heap's keys back in order as the end
// passes them. A vertex pushed there and later improved inside the window
// leaves a stale key, skipped when pulled; once inside the window it never
// leaves it.
//
// The window is padded on both sides, like a worker's ptree.Scratch:
// workers write their windows on every queued vertex, and no two may share
// a cache line. A Window is not safe for concurrent use.
type Window struct {
	_      [64]byte
	b      [numBuckets][]Entry
	occ    [numBuckets / 64]uint64
	h      *Heap
	parked []Entry // queued for the heap by Queue, pushed by Next
	cur    uint64  // the current bucket number
	end    uint64  // the least distance queued on the heap rather than in the window
	shift  uint    // s: buckets are 2^s units wide
	_      [64]byte
}

// windowCap is each bucket's initial capacity, carved with every other
// bucket's from one allocation, as New does for the heap's: a window reused
// across searches then grows only where a bucket holds more than any
// before it, not wherever a later search first reaches a bucket.
const windowCap = 16

// NewWindow returns an empty window that parks the distances beyond its end
// on h.
func NewWindow(h *Heap) *Window {
	w := &Window{h: h}
	c := min(len(h.keys), windowCap)
	slab := make([]Entry, numBuckets*c)
	for i := range w.b {
		w.b[i] = slab[i*c : i*c : (i+1)*c]
	}
	return w
}

// Start empties the window and its heap and makes bucket 0 current, with
// buckets the largest power of two units not above minArc wide (one unit
// for minArc 0, an edgeless graph's).
func (w *Window) Start(minArc uint32) {
	w.Clear()
	w.shift = uint(max(bits.Len32(minArc), 1) - 1)
	w.cur = 0
	w.end = numBuckets << w.shift
}

// Queue queues v at distance d, which must not lie before the current
// bucket: in d's bucket if d is below the window's end, and otherwise on
// the heap, once Next is called. Those pushes wait in a list so that Queue
// inlines into a search's relax loop (a call there costs the plain rows
// about a tenth); a key improved before Next is never pushed.
func (w *Window) Queue(v int, d uint64) {
	if d < w.end {
		w.add(d>>w.shift, uint32(v), d)
	} else {
		w.parked = append(w.parked, Entry{d, uint32(v)})
	}
}

// Bucket returns the current bucket's entries, in the order they were
// queued. No relaxation from them lands in it.
func (w *Window) Bucket() []Entry { return w.b[w.cur&(numBuckets-1)] }

// Next empties the current bucket and makes the next occupied one current,
// pulling into the window the heap's keys that its end passes. Once the
// window is empty it jumps to the bucket of the heap's least live key. It
// reports false once nothing live is queued. A queued distance is live
// while it is its vertex's distance in dist; the others are skipped.
func (w *Window) Next(dist []uint64) bool {
	for _, e := range w.parked {
		if e.D == dist[e.V] {
			w.h.Push(int(e.V), e.D)
		}
	}
	w.parked = w.parked[:0]
	slot := w.cur & (numBuckets - 1)
	w.b[slot] = w.b[slot][:0]
	w.occ[slot>>6] &^= 1 << (slot & 63)
	if step := w.next(w.cur); step != 0 {
		w.moveTo(w.cur+step, dist)
		return true
	}
	for !w.h.Empty() {
		v, d := w.h.Pop()
		if d == dist[v] {
			w.add(d>>w.shift, uint32(v), d)
			w.moveTo(d>>w.shift, dist)
			return true
		}
	}
	return false
}

// moveTo makes bucket number k current and pulls the heap's keys below the
// window's new end into it, skipping the stale ones.
func (w *Window) moveTo(k uint64, dist []uint64) {
	w.cur, w.end = k, (k+numBuckets)<<w.shift
	for {
		v, d, ok := w.h.PopBelow(w.end)
		if !ok {
			return
		}
		if d == dist[v] {
			w.add(d>>w.shift, uint32(v), d)
		}
	}
}

// Done reports whether a distance can no longer improve once the current
// bucket has drained: it lies in that bucket or an earlier one.
func (w *Window) Done(d uint64) bool { return d>>w.shift <= w.cur }

// Clear empties every occupied bucket, keeping its capacity, and the heap.
func (w *Window) Clear() {
	for i, word := range w.occ {
		for ; word != 0; word &= word - 1 {
			slot := i<<6 + bits.TrailingZeros64(word)
			w.b[slot] = w.b[slot][:0]
		}
		w.occ[i] = 0
	}
	w.parked = w.parked[:0]
	w.h.Clear()
}

// add queues v at distance d in bucket number k.
func (w *Window) add(k uint64, v uint32, d uint64) {
	slot := k & (numBuckets - 1)
	w.b[slot] = append(w.b[slot], Entry{d, v})
	w.occ[slot>>6%uint64(len(w.occ))] |= 1 << (slot & 63)
}

// next returns how many buckets past cur the next occupied one lies, or 0
// when the window is empty. Bucket cur must be empty.
func (w *Window) next(cur uint64) uint64 {
	start := (cur + 1) & (numBuckets - 1)
	i := start >> 6
	word := w.occ[i] &^ (1<<(start&63) - 1)
	// The last round revisits start's word whole, for the slots behind
	// start in it: the far end of the window.
	for range len(w.occ) + 1 {
		if word != 0 {
			slot := i<<6 + uint64(bits.TrailingZeros64(word))
			return (slot-start)&(numBuckets-1) + 1
		}
		i = (i + 1) % uint64(len(w.occ))
		word = w.occ[i]
	}
	return 0
}
