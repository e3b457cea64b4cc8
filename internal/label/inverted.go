package label

import (
	"container/heap"
	"slices"
)

// Label-inverted index: the transpose of the label store's vertex→hubs
// CSR. Where a label run answers "which hubs does v carry?", the
// inverted index answers "which vertices carry hub h?" — the access
// pattern of top-k nearest-target queries, where the source's label run
// names the hubs and every vertex reachable through one of those hubs
// is a candidate target.
//
// Each posting is a single uint64 with the distance d(h,v) in the high
// 32 bits, as the unit count the label run holds, and the vertex id in
// the low 32, so sorting the packed words ascending sorts each hub's
// posting list by (distance, vertex) — which is what lets TopK's k-way merge pop
// candidates in globally nondecreasing distance order and settle each
// vertex the first time it surfaces.
//
// The index is derived: it is rebuilt from the label arrays whenever a
// store is loaded or sliced, never serialized (the container format is
// pinned byte-identical by golden tests). Inverting a per-shard slice —
// whose label arrays hold only the shard's owned vertices — yields
// posting lists that name only owned vertices, so a shard's inverted
// index is automatically the shard's slice of the full one.
//
// Like the kernels over runs, TopK answers in units; the caller
// converts (FromUnits at the unit of the store it inverted).
//
// An Inverted is immutable after construction and safe for concurrent
// readers.
type Inverted struct {
	offsets []uint32 // len n+1; postings of hub h are entries [offsets[h], offsets[h+1])
	entries []uint64 // units<<32 | vertex, ascending per hub
}

func invEntry(units uint32, v int) uint64 { return uint64(units)<<32 | uint64(uint32(v)) }

func invEntryVertex(e uint64) int { return int(uint32(e)) }

func invEntryUnits(e uint64) float64 { return float64(uint32(e >> 32)) }

// Invert builds the inverted index of a store via two counting-sort
// passes plus a per-bucket sort, reading each run twice through one reused
// buffer (untouched by a fixed-width store, whose runs alias its own
// array).
func Invert(st Store) *Inverted {
	var buf []uint64
	n := st.NumVertices()
	iv := &Inverted{offsets: make([]uint32, n+1)}
	var total int
	for v := 0; v < n; v++ {
		r := st.RunInto(&buf, v)
		for _, e := range r {
			iv.offsets[e>>32+1]++
		}
		total += len(r)
	}
	for h := 0; h < n; h++ {
		iv.offsets[h+1] += iv.offsets[h]
	}
	iv.entries = make([]uint64, total)
	next := make([]uint32, n)
	copy(next, iv.offsets[:n])
	for v := 0; v < n; v++ {
		for _, e := range st.RunInto(&buf, v) {
			h := e >> 32
			iv.entries[next[h]] = invEntry(uint32(e), v)
			next[h]++
		}
	}
	for h := 0; h < n; h++ {
		if bucket := iv.entries[iv.offsets[h]:iv.offsets[h+1]]; len(bucket) > 1 {
			slices.Sort(bucket)
		}
	}
	return iv
}

// Postings returns hub h's posting list, sorted by (distance, vertex).
func (iv *Inverted) Postings(h uint32) []uint64 {
	lo, hi := iv.offsets[h], iv.offsets[h+1]
	return iv.entries[lo:hi:hi]
}

// NumPostings returns the total posting count (equal to the label count
// of the inverted store).
func (iv *Inverted) NumPostings() int64 { return int64(len(iv.entries)) }

// TotalMemory returns the exact byte footprint of the posting arrays.
func (iv *Inverted) TotalMemory() int64 {
	return int64(len(iv.offsets))*4 + int64(len(iv.entries))*8
}

// Neighbor is one top-k result in rank space: a target vertex, its
// exact distance from the source in units, and the witness hub that
// proved it.
type Neighbor struct {
	V    int
	Dist float64
	Hub  uint32
}

// knnCursor is one hub's position in the k-way merge: the source's
// distance to the hub, the hub's posting list, and how far the merge
// has consumed it.
type knnCursor struct {
	srcDist  float64 // d(source, hub) in units
	hub      uint32
	postings []uint64
	pos      int
}

// knnHeap orders cursors by their current candidate key
// (d(src,h)+d(h,v), v, hub) ascending — the same float64 summation and
// smallest-hub tie-break as the pairwise query kernels, so the first
// time a vertex is popped its (distance, hub) is exactly JoinPacked's
// answer for that pair.
type knnHeap []knnCursor

func (h knnHeap) key(i int) (float64, int, uint32) {
	c := &h[i]
	e := c.postings[c.pos]
	return c.srcDist + invEntryUnits(e), invEntryVertex(e), c.hub
}

func (h knnHeap) Len() int { return len(h) }
func (h knnHeap) Less(i, j int) bool {
	di, vi, hi := h.key(i)
	dj, vj, hj := h.key(j)
	if di != dj {
		return di < dj
	}
	if vi != vj {
		return vi < vj
	}
	return hi < hj
}
func (h knnHeap) Swap(i, j int)             { h[i], h[j] = h[j], h[i] }
func (h *knnHeap) Push(x any)               { *h = append(*h, x.(knnCursor)) }
func (h *knnHeap) Pop() any                 { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
func (h *knnHeap) fix(i int)                { heap.Fix(h, i) }
func (h *knnHeap) popCursor() (c knnCursor) { return heap.Pop(h).(knnCursor) }

// TopK returns up to k nearest targets of the source whose label run is
// run (the source's forward run), joined against this inverted index
// (built over the target-side store: the backward half on directed
// indexes). exclude names a vertex to omit — the source itself — or -1.
//
// The merge is exact, not approximate: each cursor's keys are
// nondecreasing (posting lists are distance-sorted and the hub distance
// is a per-cursor constant), so the heap pops candidates in globally
// nondecreasing (distance, vertex, hub) order. The first pop of a
// vertex therefore carries its minimum distance and, among
// equal-distance witnesses, the smallest hub — bit-identical to
// JoinPacked on the same pair. Results are sorted by (distance, vertex).
func (iv *Inverted) TopK(run []uint64, k int, exclude int) []Neighbor {
	if k <= 0 || len(run) == 0 {
		return nil
	}
	h := make(knnHeap, 0, len(run))
	for _, e := range run {
		p := iv.Postings(uint32(e >> 32))
		if len(p) == 0 {
			continue
		}
		h = append(h, knnCursor{srcDist: float64(Dist(e)), hub: Hub(e), postings: p})
	}
	heap.Init(&h)
	out := make([]Neighbor, 0, k)
	seen := make(map[int]struct{}, k)
	for len(h) > 0 && len(out) < k {
		d, v, hub := h.key(0)
		if _, dup := seen[v]; !dup && v != exclude {
			seen[v] = struct{}{}
			out = append(out, Neighbor{V: v, Dist: d, Hub: hub})
		} else if !dup {
			seen[v] = struct{}{} // the excluded vertex: settle it once, skip it
		}
		c := &h[0]
		c.pos++
		if c.pos == len(c.postings) {
			h.popCursor()
		} else {
			h.fix(0)
		}
	}
	return out
}
