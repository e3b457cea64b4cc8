package sssp

import (
	"math"
	"math/bits"

	"repro/internal/graph"
)

// numBuckets is the width of the bucket window, a power of two.
const numBuckets = 1024

// maxBucket bounds the bucket numbers the window uses: a distance d with
// d/Δ at or above it (weights near 1e±300 reach it, and d/Δ may be +Inf)
// waits on the heap, and once the heap's minimum is there the rest of the
// search is plain Dijkstra on the heap. Below it, bucket numbers and their
// sums with numBuckets are exact in a float64.
const maxBucket = 1 << 50

// minWidth is the narrowest bucket the search uses, so that 1/Δ is finite.
const minWidth = 0x1p-1000

// entry is a vertex queued in a bucket with the distance it was queued at.
// It is stale once the vertex's distance has improved again.
type entry struct {
	d float64
	v uint32
}

// window is a circular array of numBuckets buckets with an occupancy
// bitmap: bucket number k lives in slot k mod numBuckets.
type window struct {
	b   [numBuckets][]entry
	occ [numBuckets / 64]uint64
}

// add queues v at distance d in bucket number k.
func (w *window) add(k uint64, v uint32, d float64) {
	slot := k & (numBuckets - 1)
	w.b[slot] = append(w.b[slot], entry{d, v})
	w.occ[slot>>6%uint64(len(w.occ))] |= 1 << (slot & 63)
}

// next returns how many buckets past cur the next occupied one lies, or 0
// when the window is empty. Bucket cur must be empty.
func (w *window) next(cur uint64) uint64 {
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

// clear empties every occupied bucket, keeping its capacity.
func (w *window) clear() {
	for i, word := range w.occ {
		for ; word != 0; word &= word - 1 {
			slot := i<<6 + bits.TrailingZeros64(word)
			w.b[slot] = w.b[slot][:0]
		}
		w.occ[i] = 0
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

// search writes the distances from source over g into dist (every cell),
// and, if pred is non-nil, each improved vertex's predecessor. It stops
// once the queue drains or target (-1: none) is final; the rest of dist is
// not final then. The scratch must be clear, and is left for putScratch.
//
// Bucket number k holds the distances d with ⌊d·(1/Δ)⌋ = k, a function
// monotone in d, and the window holds buckets cur to cur+numBuckets-1.
// Relaxing from d gives fl(d + w) ≥ d, so a relaxation lands in bucket cur
// or later, and once bucket cur drains no distance in it or before it can
// improve: the window moves strictly forward, and a vertex is final when
// its bucket drains. A bucket drains in FIFO rounds: a vertex whose
// distance improves while its bucket drains is queued in it again. Every
// improvement is therefore relaxed before the search ends, whatever Δ is,
// so dist is the least left-to-right path sum, as a heap-ordered Dijkstra
// computes it. With Δ the lightest weight, w ≥ Δ puts d + w in a later
// bucket but for rounding, so a re-queue is rare.
//
// A distance at or beyond the window's end is pushed on the heap instead.
// Each push is at or above the end, which only moves forward, so PopBelow
// pulls the heap's keys back in order as the end passes them. A vertex
// pushed there and later improved inside the window leaves a stale key,
// skipped when popped; once inside the window it never leaves it.
func (s *scratch) search(g *graph.Graph, source, target int, delta float64, dist []float64, pred []int) {
	for i := range dist {
		dist[i] = graph.Infinity
	}
	dist[source] = 0
	delta = max(delta, minWidth)
	inv := 1 / delta
	h, w := s.h, &s.w
	var cur uint64
	end := windowEnd(cur, delta, inv)
	w.add(cur, uint32(source), 0)
	for {
		slot := cur & (numBuckets - 1)
		s.drain(g, slot, dist, pred, end, inv)
		w.b[slot] = w.b[slot][:0]
		w.occ[slot>>6] &^= 1 << (slot & 63)
		if target >= 0 && dist[target]*inv < float64(cur+1) {
			return
		}
		if step := w.next(cur); step != 0 {
			cur += step
			if !h.Empty() {
				end = windowEnd(cur, delta, inv)
				s.pull(end, inv, dist)
			}
			continue
		}
		// The window is empty: jump to the heap's minimum.
		for {
			if h.Empty() {
				return
			}
			v, d := h.Pop()
			if d != dist[v] {
				continue
			}
			if x := d * inv; x < maxBucket {
				cur = uint64(x)
				end = windowEnd(cur, delta, inv)
				w.add(cur, uint32(v), d)
				s.pull(end, inv, dist)
			} else {
				// Past the last bucket number the search is Dijkstra on the
				// heap: v is final, and everything it reaches goes to the
				// heap. It is relaxed through bucket cur, which is empty.
				if v == target {
					return
				}
				end = d
				w.add(cur, uint32(v), d)
			}
			break
		}
	}
}

// drain relaxes every live vertex queued in slot, in FIFO order, including
// the ones queued there again while it drains. Each improved vertex is
// queued in its bucket if it is below end and on the heap otherwise.
func (s *scratch) drain(g *graph.Graph, slot uint64, dist []float64, pred []int, end, inv float64) {
	w, h := &s.w, s.h
	for i := 0; i < len(w.b[slot]); i++ {
		e := w.b[slot][i]
		if e.d != dist[e.v] {
			continue
		}
		heads, wts := g.Neighbors(int(e.v))
		for j, v := range heads {
			nd := e.d + wts[j]
			if nd >= dist[v] {
				continue
			}
			dist[v] = nd
			if pred != nil {
				pred[v] = int(e.v)
			}
			if nd < end {
				w.add(bucketOf(nd, inv), v, nd)
			} else {
				h.Push(int(v), nd)
			}
		}
	}
}

// pull moves the heap's keys below the window's end into the window,
// skipping the stale ones.
func (s *scratch) pull(end, inv float64, dist []float64) {
	for {
		v, d, ok := s.h.PopBelow(end)
		if !ok {
			return
		}
		if d == dist[v] {
			s.w.add(bucketOf(d, inv), uint32(v), d)
		}
	}
}
