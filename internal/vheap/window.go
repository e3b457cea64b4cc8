package vheap

import (
	"math"
	"math/bits"
)

// numBuckets is the width of the bucket window, a power of two.
const numBuckets = 1024

// maxBucket bounds the bucket numbers the window uses: a distance d with
// d/Δ at or above it (weights near 1e±300 reach it, and d/Δ may be +Inf)
// waits on the heap, and once the heap's minimum is there the rest of the
// search settles from the heap one key at a time. Below it, bucket numbers
// and their sums with numBuckets are exact in a float64.
const maxBucket = 1 << 50

// minWidth is the narrowest bucket the window uses, so that 1/Δ is finite.
const minWidth = 0x1p-1000

// Entry is a vertex queued in a bucket with the distance it was queued at.
// It is stale once the vertex's distance has improved again.
type Entry struct {
	D float64
	V uint32
}

// Window is the bucket queue of the searches that settle a bucket at a
// time: a circular array of numBuckets buckets Δ wide, bucket number k in
// slot k mod numBuckets, with an occupancy bitmap, in front of a Heap.
//
// Bucket number k holds the distances d with ⌊d·(1/Δ)⌋ = k, a function
// monotone in d. The window holds buckets cur to cur+numBuckets-1; a
// distance at or beyond their end is pushed on the heap instead. Each push
// is at or above the end, which only moves forward, so PopBelow pulls the
// heap's keys back in order as the end passes them. A vertex pushed there
// and later improved inside the window leaves a stale key, skipped when
// pulled; once inside the window it never leaves it. Past bucket number
// maxBucket, and for any Δ below minWidth, every key is settled from the
// heap alone, one at a time, through an otherwise empty current bucket.
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
	end    float64 // the least distance queued on the heap rather than in the window
	delta  float64 // Δ, the width of a bucket
	inv    float64 // 1/Δ
	far    bool    // every key is settled from the heap
	_      [64]byte
}

// NewWindow returns an empty window that parks the distances beyond its end
// on h.
func NewWindow(h *Heap) *Window { return &Window{h: h} }

// Start empties the window and its heap and makes bucket 0 current, with
// buckets delta wide. A delta below minWidth (zero, say, for an edgeless
// graph) settles every key from the heap.
func (w *Window) Start(delta float64) {
	w.Clear()
	w.cur, w.far = 0, !(delta >= minWidth)
	if w.far {
		w.end = 0
		return
	}
	w.delta, w.inv = delta, 1/delta
	w.end = windowEnd(0, delta, w.inv)
}

// Queue queues v at distance d, which must not lie before the current
// bucket: in d's bucket if d is below the window's end, and otherwise on
// the heap, once Next is called. Those pushes wait in a list so that Queue
// inlines into a search's relax loop (a call there costs the plain rows
// about a tenth); a key improved before Next is never pushed.
func (w *Window) Queue(v int, d float64) {
	if d < w.end {
		w.add(bucketOf(d, w.inv), uint32(v), d)
	} else {
		w.parked = append(w.parked, Entry{d, uint32(v)})
	}
}

// Bucket returns the current bucket's entries, in the order they were
// queued. A vertex queued in the current bucket while it drains is appended
// to it: a caller that allows that re-reads the bucket's length.
func (w *Window) Bucket() []Entry { return w.b[w.cur&(numBuckets-1)] }

// Next empties the current bucket and makes the next occupied one current,
// pulling into the window the heap's keys that its end passes. Once the
// window is empty it jumps to the heap's least live key: into that key's
// bucket, or, past bucket number maxBucket, alone into the current bucket,
// after which every key settles from the heap one at a time. It reports
// false once nothing live is queued. A queued distance is live while it is
// its vertex's distance in dist; the others are skipped.
func (w *Window) Next(dist []float64) bool {
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
		w.cur += step
		if !w.h.Empty() {
			w.end = windowEnd(w.cur, w.delta, w.inv)
			w.pull(dist)
		}
		return true
	}
	for !w.h.Empty() {
		v, d := w.h.Pop()
		if d != dist[v] {
			continue
		}
		if x := d * w.inv; !w.far && x < maxBucket {
			w.cur = uint64(x)
			w.end = windowEnd(w.cur, w.delta, w.inv)
			w.add(w.cur, uint32(v), d)
			w.pull(dist)
		} else {
			// v is final, and everything it reaches goes to the heap.
			w.far, w.end = true, d
			w.add(w.cur, uint32(v), d)
		}
		return true
	}
	return false
}

// Done reports whether a distance can no longer improve once the current
// bucket has drained: it lies in that bucket or an earlier one, or, when
// keys settle from the heap, at or below the last one settled.
func (w *Window) Done(d float64) bool {
	if w.far {
		return d <= w.end
	}
	return d*w.inv < float64(w.cur+1)
}

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
func (w *Window) add(k uint64, v uint32, d float64) {
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

// pull moves the heap's keys below the window's end into the window,
// skipping the stale ones.
func (w *Window) pull(dist []float64) {
	for {
		v, d, ok := w.h.PopBelow(w.end)
		if !ok {
			return
		}
		if d == dist[v] {
			w.add(bucketOf(d, w.inv), uint32(v), d)
		}
	}
}

// bucketOf returns d's bucket number, which must be below maxBucket. It
// converts through int64: one instruction on amd64, where a conversion to
// uint64 branches.
func bucketOf(d, inv float64) uint64 { return uint64(int64(d * inv)) }

// windowEnd returns the least distance whose bucket number is
// cur+numBuckets or more (maxBucket or more, if that is sooner): a distance
// belongs in the window exactly when it is below windowEnd.
func windowEnd(cur uint64, delta, inv float64) float64 {
	k := float64(min(cur+numBuckets, maxBucket))
	t := k * delta
	for t*inv < k {
		t = math.Nextafter(t, math.Inf(1))
	}
	for t > 0 {
		below := math.Nextafter(t, 0)
		if below*inv < k {
			break
		}
		t = below
	}
	return t
}
