package label

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Compressed label streams: the EncCompressed representation of a packed
// label store. The fixed-width FlatIndex spends 8 bytes on every entry even
// though per-vertex hub ids are sorted (so consecutive ids are close) and
// distances are mostly small unit counts (so 32 distance bits are mostly
// zero). A CompressedIndex encodes each vertex's run as one byte stream,
// entry by entry:
//
//	uvarint(hub − prevHub − 1)   prevHub = −1 before the first entry; strict
//	                             sortedness makes every gap ≥ 0
//	uvarint(units)               the unit count (of the index's 2^-k) the
//	                             packed entry holds
//
// with the streams of all vertices back to back behind n+1 uint32 byte
// offsets. The kernels join and probe while they decode, one entry per
// step, and never materialize a run.
//
// The arrays are designed for the same zero-copy story as the flat store:
// the offsets are a uint32 array, the streams raw bytes, and the container
// serves both in place from a mapping.
//
// A CompressedIndex is immutable after construction and safe for
// concurrent readers.
type CompressedIndex struct {
	n       int
	total   int64    // label count across all streams
	offsets []uint32 // len n+1; the stream of v is data[offsets[v]:offsets[v+1]]
	data    []byte   // the streams, contiguous in vertex order
	unitExp int      // k: a decoded count is units of 2^-k, as in FlatIndex
}

// Compress encodes a flat index as compressed label streams. The flat
// index must satisfy the structural invariants every loader establishes
// (sorted in-range hubs); Freeze output and loaded indexes always do.
func Compress(f *FlatIndex) (*CompressedIndex, error) {
	n := f.NumVertices()
	c := &CompressedIndex{
		n:       n,
		total:   f.NumLabels(),
		offsets: make([]uint32, n+1),
		unitExp: f.unitExp,
	}
	for v := 0; v < n; v++ {
		if c.data = appendStream(c.data, f.PackedRun(v)); int64(len(c.data)) > math.MaxUint32 {
			return nil, fmt.Errorf("label: index too large for the compressed format (%d stream bytes)", len(c.data))
		}
		c.offsets[v+1] = uint32(len(c.data))
	}
	return c, nil
}

// appendStream appends the stream of one packed run to dst.
func appendStream(dst []byte, run []uint64) []byte {
	next := uint64(0) // the smallest hub the next entry may name
	for _, e := range run {
		dst = binary.AppendUvarint(dst, e>>32-next)
		dst = binary.AppendUvarint(dst, uint64(uint32(e)))
		next = e>>32 + 1
	}
	return dst
}

// NumVertices returns the number of vertices the index covers.
func (c *CompressedIndex) NumVertices() int { return c.n }

// NumLabels returns the total number of encoded labels.
func (c *CompressedIndex) NumLabels() int64 { return c.total }

// UnitExp returns k: decoded entries count units of 2^-k.
func (c *CompressedIndex) UnitExp() int { return c.unitExp }

// LabelCount returns the number of labels of v by walking its stream:
// every varint ends in the one byte below 0x80, and an entry is two
// varints.
func (c *CompressedIndex) LabelCount(v int) int {
	ends := 0
	for _, b := range c.Run(v) {
		if b < 0x80 {
			ends++
		}
	}
	return ends / 2
}

// TotalMemory returns the exact byte footprint of the compressed arrays:
// vertex offsets and the streams.
func (c *CompressedIndex) TotalMemory() int64 {
	return int64(len(c.offsets))*4 + int64(len(c.data))
}

// CRun is the compressed label stream of one vertex. A CRun aliases the
// index's data; callers must not modify it.
type CRun []byte

// Run returns the compressed label stream of v, aliasing the index's data
// (zero-copy on a memory-mapped index).
func (c *CompressedIndex) Run(v int) CRun {
	lo, hi := c.offsets[v], c.offsets[v+1]
	return CRun(c.data[lo:hi:hi])
}

// uvarint decodes the varint at r[i:] and returns it with the index past
// it. It trusts the stream (validate has run): a one-byte varint, the
// common case, inlines into the kernels.
func (r CRun) uvarint(i int) (uint64, int) {
	if b := r[i]; b < 0x80 {
		return uint64(b), i + 1
	}
	x, m := binary.Uvarint(r[i:])
	return x, i + m
}

// skip returns the index past the varint at r[i:] without decoding it.
func (r CRun) skip(i int) int {
	for r[i] >= 0x80 {
		i++
	}
	return i + 1
}

// JoinCompressed merge-joins two compressed label streams, returning the
// best distance in units, its witness hub (rank space), and reachability
// — the compressed sibling of JoinPacked, and bit-identical to it on the
// same label sets: same sum of unit counts, same smallest-hub tie-break
// among equal-distance witnesses. It decodes one entry per step, and only
// the unit counts of shared hubs; the other side's are skipped byte-wise.
func JoinCompressed(a, b CRun) (dist float64, hub uint32, ok bool) {
	dist = Infinity
	if len(a) == 0 || len(b) == 0 {
		return dist, 0, false
	}
	ha, i := a.uvarint(0)
	hb, j := b.uvarint(0)
	var gap, ua, ub uint64
	for {
		switch {
		case ha == hb:
			ua, i = a.uvarint(i)
			ub, j = b.uvarint(j)
			if d := float64(ua) + float64(ub); d < dist {
				dist, hub, ok = d, uint32(ha), true
			}
			if i == len(a) || j == len(b) {
				return dist, hub, ok
			}
			gap, i = a.uvarint(i)
			ha += gap + 1
			gap, j = b.uvarint(j)
			hb += gap + 1
		case ha < hb:
			if i = a.skip(i); i == len(a) {
				return dist, hub, ok
			}
			gap, i = a.uvarint(i)
			ha += gap + 1
		default:
			if j = b.skip(j); j == len(b) {
				return dist, hub, ok
			}
			gap, j = b.uvarint(j)
			hb += gap + 1
		}
	}
}

// ProbeCompressed hub-joins one compressed target stream against the
// scattered source run, decoding as it probes with the RunScatter.Probe
// loop; entries past the source's maximum hub can never match and end
// the scan early. Answers are bit-identical to Probe on the decompressed
// run.
func (rs RunScatter) ProbeCompressed(r CRun) (dist float64, hub uint32, ok bool) {
	if len(rs.run) == 0 {
		return Infinity, 0, false
	}
	slot, best := rs.s.slot, uint64(absent)
	maxHub := uint64(rs.maxHub)
	h := uint64(0)
	for i := 0; i < len(r); h++ {
		var gap, units uint64
		gap, i = r.uvarint(i)
		if h += gap; h > maxHub {
			break
		}
		units, i = r.uvarint(i)
		if d := slot[h] + units; d < best {
			best, hub = d, uint32(h)
		}
	}
	return minProbe(best, hub)
}

// AppendPackedRun appends the decoded (fixed-width packed) entries of v to
// dst and returns the extended slice — how a compressed shard server
// materializes the byte-identical packed rows the /shardquery protocol
// carries.
func (c *CompressedIndex) AppendPackedRun(dst []uint64, v int) []uint64 {
	r := c.Run(v)
	h := uint64(0)
	for i := 0; i < len(r); h++ {
		var gap, units uint64
		gap, i = r.uvarint(i)
		h += gap
		units, i = r.uvarint(i)
		dst = append(dst, h<<32|units)
	}
	return dst
}

// RunInto decodes the run of v into (*buf)[:0] — a fresh slice when buf
// is nil — and returns it (see Store).
func (c *CompressedIndex) RunInto(buf *[]uint64, v int) []uint64 {
	if buf == nil {
		return c.AppendPackedRun(nil, v)
	}
	*buf = c.AppendPackedRun((*buf)[:0], v)
	return *buf
}

// Labels reconstructs the label set of v (allocates; query paths use
// JoinCompressed directly).
func (c *CompressedIndex) Labels(v int) Set { return c.AppendPackedRun(nil, v) }

// Decompress expands the compressed index back into a fixed-width flat
// index with identical labels.
func (c *CompressedIndex) Decompress() *FlatIndex {
	f := &FlatIndex{
		offsets: make([]uint32, c.n+1),
		entries: make([]uint64, 0, c.total),
		unitExp: c.unitExp,
	}
	for v := 0; v < c.n; v++ {
		f.offsets[v] = uint32(len(f.entries))
		f.entries = c.AppendPackedRun(f.entries, v)
	}
	f.offsets[c.n] = uint32(len(f.entries))
	return f
}

// Slice returns a new heap-backed CompressedIndex over the same vertex-id
// space that keeps only the label streams of vertices for which keep
// returns true — the compressed sibling of FlatIndex.Slice, and the
// operation shard writers use to carve per-shard files out of one index.
// Kept streams are copied verbatim (no re-encoding).
func (c *CompressedIndex) Slice(keep func(v int) bool) Store {
	out := &CompressedIndex{
		n:       c.n,
		offsets: make([]uint32, c.n+1),
		unitExp: c.unitExp,
	}
	for v := 0; v < c.n; v++ {
		if keep(v) {
			out.data = append(out.data, c.Run(v)...)
			out.total += int64(c.LabelCount(v))
		}
		out.offsets[v+1] = uint32(len(out.data))
	}
	return out
}

// validate checks the structural invariants every loader must establish
// before the decoding kernels may trust the arrays: monotone vertex
// offsets spanning the data, and — in one checked pass over every stream
// — whole entries of well-formed, minimally encoded varints, strictly
// ascending hubs below n, and unit counts below 2^32. It also recomputes
// the label total.
func (c *CompressedIndex) validate() error {
	if c.n < 0 || len(c.offsets) != c.n+1 {
		return fmt.Errorf("label: compressed index has no vertex offsets")
	}
	if c.offsets[0] != 0 || int64(c.offsets[c.n]) != int64(len(c.data)) {
		return fmt.Errorf("label: compressed vertex offsets do not span the %d data bytes", len(c.data))
	}
	var total int64
	for v := 0; v < c.n; v++ {
		if c.offsets[v] > c.offsets[v+1] || int64(c.offsets[v+1]) > int64(len(c.data)) {
			return fmt.Errorf("label: compressed vertex offsets not monotone at vertex %d", v)
		}
		r := c.Run(v)
		next := uint64(0) // the smallest hub the next entry may name; ≤ n
		for i := 0; i < len(r); total++ {
			gap, m := checkedUvarint(r[i:])
			if m <= 0 {
				return fmt.Errorf("label: vertex %d: bad hub varint at stream byte %d", v, i)
			}
			if gap >= uint64(c.n)-next {
				return fmt.Errorf("label: vertex %d: hub gap %d at stream byte %d does not ascend to a hub below n=%d", v, gap, i, c.n)
			}
			i += m
			units, m := checkedUvarint(r[i:])
			if m <= 0 {
				return fmt.Errorf("label: vertex %d: bad distance varint at stream byte %d", v, i)
			}
			if units > math.MaxUint32 {
				return fmt.Errorf("label: vertex %d: distance of %d units does not fit 32 bits", v, units)
			}
			i += m
			next += gap + 1
		}
	}
	c.total = total
	return nil
}

// checkedUvarint is binary.Uvarint that also refuses a non-minimal
// encoding (a last byte of 0 after the first), so an accepted stream is
// exactly what Compress writes for its labels.
func checkedUvarint(p []byte) (uint64, int) {
	x, m := binary.Uvarint(p)
	if m > 1 && p[m-1] == 0 {
		return 0, -m
	}
	return x, m
}
