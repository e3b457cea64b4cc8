package label

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Compressed label blocks: the EncCompressed representation of a packed
// label store. The fixed-width FlatIndex spends 8 bytes on every entry even
// though per-vertex hub ids are sorted (so consecutive ids are close) and
// distances are mostly small unit counts (so 32 distance bits are mostly
// zero). A CompressedIndex splits each vertex's run into
// fixed-count blocks of CompressedBlockEntries entries (the last block of
// a vertex may be shorter) and encodes each block as
//
//	hub plane:  uvarint(hub[i] − hub[i−1] − 1) for i ≥ 1
//	            (hub[0] is the block header's minHub; strict sortedness
//	            makes every delta ≥ 1, so 1 is subtracted before encoding)
//	dist plane: uvarint(units) for each entry — the same unit count
//	            (of the index's 2^-k) the packed entry holds
//
// Every block is headed by four uint32 words — minHub, maxHub, dataOff,
// count|byteLen<<16 (bits 8–15 are zero) — kept in one contiguous header
// array. The (minHub, maxHub) summary is what buys query speed back:
// JoinCompressed merge-joins two label runs at block granularity and
// skips — without decoding a single varint — every block whose hub
// interval cannot intersect the other side's current block, the same
// data-skipping principle per-block min/max summaries serve in columnar
// scan engines.
//
// The arrays are designed for the same zero-copy story as the flat store:
// headers and vertex offsets are uint32 arrays, the block payloads raw
// bytes, and the container serves all three in place from a mapping.
//
// A CompressedIndex is immutable after construction and safe for
// concurrent readers.
type CompressedIndex struct {
	n         int
	blockSize int      // entries per full block (CompressedBlockEntries in files this package writes)
	total     int64    // label count across all blocks
	vertOff   []uint32 // len n+1; blocks of v are heads[4*vertOff[v] : 4*vertOff[v+1]]
	heads     []uint32 // 4 words per block: minHub, maxHub, dataOff, count|byteLen<<16
	data      []byte   // block payloads, contiguous in block order
	unitExp   int      // k: a decoded count is units of 2^-k, as in FlatIndex
}

// CompressedBlockEntries is the block size (entries per full block) this
// package writes. Readers accept any block size in [1, CompressedMaxBlockEntries]
// so the constant can change without invalidating existing files.
const CompressedBlockEntries = 64

// CompressedMaxBlockEntries bounds the per-block entry count: it must fit
// the 8-bit count field of the block header, and the join kernels decode
// blocks into stack buffers of this size.
const CompressedMaxBlockEntries = 255

// maxCompressedBlockBytes is the worst-case payload of one block:
// CompressedMaxBlockEntries−1 hub deltas and CompressedMaxBlockEntries
// distances at ≤ 5 varint bytes each — comfortably inside the header's
// 16-bit byteLen field.
const maxCompressedBlockBytes = (CompressedMaxBlockEntries - 1 + CompressedMaxBlockEntries) * 5

// Compress packs a flat index into compressed label blocks of the default
// block size. The flat index must satisfy the structural invariants every
// loader establishes (sorted in-range hubs); Freeze output and loaded
// indexes always do.
func Compress(f *FlatIndex) (*CompressedIndex, error) {
	return CompressBlocks(f, CompressedBlockEntries)
}

// CompressBlocks is Compress with an explicit block size in
// [1, CompressedMaxBlockEntries]. Smaller blocks skip more precisely but
// spend more header bytes; 64 is a good default.
func CompressBlocks(f *FlatIndex, blockSize int) (*CompressedIndex, error) {
	if blockSize < 1 || blockSize > CompressedMaxBlockEntries {
		return nil, fmt.Errorf("label: block size %d out of range [1,%d]", blockSize, CompressedMaxBlockEntries)
	}
	n := f.NumVertices()
	c := &CompressedIndex{
		n:         n,
		blockSize: blockSize,
		total:     f.NumLabels(),
		vertOff:   make([]uint32, n+1),
		unitExp:   f.unitExp,
	}
	var scratch [binary.MaxVarintLen64]byte
	for v := 0; v < n; v++ {
		c.vertOff[v] = uint32(len(c.heads) / 4)
		for run := f.PackedRun(v); len(run) > 0; {
			cnt := blockSize
			if cnt > len(run) {
				cnt = len(run)
			}
			blk := run[:cnt]
			run = run[cnt:]
			dataOff := len(c.data)
			if int64(dataOff) > math.MaxUint32-maxCompressedBlockBytes {
				return nil, fmt.Errorf("label: index too large for the compressed format (%d payload bytes)", dataOff)
			}
			for i := 1; i < cnt; i++ {
				m := binary.PutUvarint(scratch[:], (blk[i]>>32)-(blk[i-1]>>32)-1)
				c.data = append(c.data, scratch[:m]...)
			}
			for _, e := range blk {
				m := binary.PutUvarint(scratch[:], uint64(uint32(e)))
				c.data = append(c.data, scratch[:m]...)
			}
			byteLen := len(c.data) - dataOff
			c.heads = append(c.heads,
				uint32(blk[0]>>32), uint32(blk[cnt-1]>>32), uint32(dataOff),
				uint32(cnt)|uint32(byteLen)<<16)
		}
	}
	c.vertOff[n] = uint32(len(c.heads) / 4)
	return c, nil
}

// NumVertices returns the number of vertices the index covers.
func (c *CompressedIndex) NumVertices() int { return c.n }

// NumLabels returns the total number of encoded labels.
func (c *CompressedIndex) NumLabels() int64 { return c.total }

// UnitExp returns k: decoded entries count units of 2^-k.
func (c *CompressedIndex) UnitExp() int { return c.unitExp }

// LabelCount returns the number of labels of v by summing its block
// counts — O(blocks of v), no decoding.
func (c *CompressedIndex) LabelCount(v int) int {
	total := 0
	for b := c.vertOff[v]; b < c.vertOff[v+1]; b++ {
		total += int(c.heads[4*b+3] & 0xff)
	}
	return total
}

// TotalMemory returns the exact byte footprint of the compressed arrays:
// vertex offsets, block headers, and the encoded payload.
func (c *CompressedIndex) TotalMemory() int64 {
	return int64(len(c.vertOff))*4 + int64(len(c.heads))*4 + int64(len(c.data))
}

// CRun is the compressed label run of one vertex: its block headers plus
// the (whole) payload array the headers' data offsets point into. A CRun
// aliases the index's arrays; callers must not modify it.
type CRun struct {
	heads []uint32 // 4 words per block
	data  []byte   // the index's full payload array (offsets are absolute)
}

// Run returns the compressed label run of v, aliasing the index's arrays
// (zero-copy on a memory-mapped index).
func (c *CompressedIndex) Run(v int) CRun {
	lo, hi := c.vertOff[v], c.vertOff[v+1]
	return CRun{heads: c.heads[4*lo : 4*hi : 4*hi], data: c.data}
}

// compBlockBuf holds one decoded block as packed hub<<32|units
// entries — the exact word layout the packed join kernels compare — so
// the within-block merge of JoinCompressed is the same loop as JoinPacked.
type compBlockBuf [CompressedMaxBlockEntries]uint64

// decodeBlock expands block b of the run into buf and returns its entry
// count. It trusts the structural invariants the loaders validate
// (in-bounds offsets, well-formed varints, byteLen consumed exactly).
func (r CRun) decodeBlock(b int, buf *compBlockBuf) int {
	h := r.heads[4*b : 4*b+4 : 4*b+4]
	w3 := h[3]
	count := int(w3 & 0xff)
	p := r.data[h[2] : h[2]+w3>>16]
	hub := uint64(h[0])
	buf[0] = hub << 32
	k := 0
	for i := 1; i < count; i++ {
		d, m := binary.Uvarint(p[k:])
		k += m
		hub += d + 1
		buf[i] = hub << 32
	}
	for i := 0; i < count; i++ {
		v, m := binary.Uvarint(p[k:])
		k += m
		buf[i] |= v
	}
	return count
}

// JoinCompressed merge-joins two compressed label runs, returning the
// best distance in units, its witness hub (rank space), and reachability
// — the compressed sibling of JoinPacked, and bit-identical to it on the
// same label sets: same sum of unit counts, same smallest-hub tie-break
// among equal-distance witnesses.
//
// The join walks both runs block by block. A block pair whose
// [minHub, maxHub] intervals do not intersect is resolved from the
// headers alone — the side that ends first advances without decoding a
// single byte of payload, which is where compressed queries win on label
// runs whose hub ranges interleave coarsely (each side's tail of
// low-rank hubs, for instance, is skipped outright). Only overlapping
// blocks are decoded, into stack buffers, and merged with the JoinPacked
// loop.
func JoinCompressed(a, b CRun) (dist float64, hub uint32, ok bool) {
	dist = Infinity
	na, nb := len(a.heads)/4, len(b.heads)/4
	ia, ib := 0, 0
	var ba, bb compBlockBuf
	ca, cb := 0, 0 // decoded entry counts (0: block ia/ib not decoded yet)
	pa, pb := 0, 0 // merge positions within the decoded blocks
	for ia < na && ib < nb {
		if a.heads[4*ia+1] < b.heads[4*ib] { // aMax < bMin: skip a's block
			ia++
			ca, pa = 0, 0
			continue
		}
		if b.heads[4*ib+1] < a.heads[4*ia] { // bMax < aMin: skip b's block
			ib++
			cb, pb = 0, 0
			continue
		}
		if ca == 0 {
			ca = a.decodeBlock(ia, &ba)
		}
		if cb == 0 {
			cb = b.decodeBlock(ib, &bb)
		}
		for pa < ca && pb < cb {
			ea, eb := ba[pa], bb[pb]
			ha, hb := ea>>32, eb>>32
			if ha == hb {
				if d := entryUnits(ea) + entryUnits(eb); d < dist {
					dist, hub, ok = d, uint32(ha), true
				}
				pa++
				pb++
			} else if ha < hb {
				pa++
			} else {
				pb++
			}
		}
		if pa == ca {
			ia++
			ca, pa = 0, 0
		}
		if pb == cb {
			ib++
			cb, pb = 0, 0
		}
	}
	return dist, hub, ok
}

// ProbeCompressed hub-joins one compressed target run against the
// scattered source run, block by block: the header's (minHub, maxHub)
// summary resolves non-overlapping blocks without decoding a byte —
// blocks entirely below the source's hub range are skipped, blocks
// entirely above it end the scan — and only overlapping blocks are
// decoded (into a stack buffer) and probed with the RunScatter.Probe
// loop. Answers are bit-identical to Probe on the decompressed run.
func (rs RunScatter) ProbeCompressed(r CRun) (dist float64, hub uint32, ok bool) {
	dist = Infinity
	if len(rs.run) == 0 {
		return dist, 0, false
	}
	var buf compBlockBuf
	slot := rs.s.slot
	for b, nb := 0, len(r.heads)/4; b < nb; b++ {
		if r.heads[4*b+1] < rs.minHub { // block entirely below the source's hubs
			continue
		}
		if r.heads[4*b] > rs.maxHub { // blocks are hub-ascending: nothing left can match
			break
		}
		cnt := r.decodeBlock(b, &buf)
		for _, e := range buf[:cnt] {
			h := uint32(e >> 32)
			if h > rs.maxHub {
				break
			}
			if d := slot[h] + entryUnits(e); d < dist {
				dist, hub, ok = d, h, true
			}
		}
	}
	return dist, hub, ok
}

// AppendPackedRun appends the decoded (fixed-width packed) entries of v to
// dst and returns the extended slice — how a compressed shard server
// materializes the byte-identical packed rows the /shardquery protocol
// carries.
func (c *CompressedIndex) AppendPackedRun(dst []uint64, v int) []uint64 {
	var buf compBlockBuf
	r := c.Run(v)
	for b := 0; b < len(r.heads)/4; b++ {
		cnt := r.decodeBlock(b, &buf)
		dst = append(dst, buf[:cnt]...)
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
func (c *CompressedIndex) Labels(v int) Set { return runLabels(c.AppendPackedRun(nil, v), c.unitExp) }

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
// space that keeps only the label runs of vertices for which keep returns
// true — the compressed sibling of FlatIndex.Slice, and the operation
// shard writers use to carve per-shard files out of one index. Kept
// vertices' blocks are copied verbatim (no re-encoding), with data
// offsets rebased onto the compacted payload.
func (c *CompressedIndex) Slice(keep func(v int) bool) Store {
	out := &CompressedIndex{
		n:         c.n,
		blockSize: c.blockSize,
		vertOff:   make([]uint32, c.n+1),
		unitExp:   c.unitExp,
	}
	for v := 0; v < c.n; v++ {
		out.vertOff[v] = uint32(len(out.heads) / 4)
		if !keep(v) {
			continue
		}
		for b := c.vertOff[v]; b < c.vertOff[v+1]; b++ {
			h := c.heads[4*b : 4*b+4]
			byteLen := h[3] >> 16
			out.heads = append(out.heads, h[0], h[1], uint32(len(out.data)), h[3])
			out.data = append(out.data, c.data[h[2]:h[2]+byteLen]...)
			out.total += int64(h[3] & 0xff)
		}
	}
	out.vertOff[c.n] = uint32(len(out.heads) / 4)
	return out
}

// validate checks the structural invariants every loader must establish
// before the decoding kernels may trust the arrays: monotone vertex
// offsets spanning the header array, contiguous in-bounds block payloads,
// the canonical block partition (every block of a vertex except its last
// holds exactly blockSize entries), and — by decoding every block once —
// well-formed varints consuming exactly byteLen bytes, strictly ascending
// in-range hubs matching the header's (minHub, maxHub) summary, and
// unit counts below 2^32. Bits 8–15 of a block's last header word are
// zero. It also recomputes the label total.
func (c *CompressedIndex) validate() error {
	if c.n < 0 || len(c.vertOff) != c.n+1 {
		return fmt.Errorf("label: compressed index has no vertex offsets")
	}
	if c.blockSize < 1 || c.blockSize > CompressedMaxBlockEntries {
		return fmt.Errorf("label: compressed block size %d out of range [1,%d]", c.blockSize, CompressedMaxBlockEntries)
	}
	nb := len(c.heads) / 4
	if len(c.heads)%4 != 0 {
		return fmt.Errorf("label: compressed header array length %d is not a whole number of blocks", len(c.heads))
	}
	if c.vertOff[0] != 0 || int(c.vertOff[c.n]) != nb {
		return fmt.Errorf("label: compressed vertex offsets do not span the block array")
	}
	for v := 0; v < c.n; v++ {
		if c.vertOff[v] > c.vertOff[v+1] {
			return fmt.Errorf("label: compressed vertex offsets not monotone at vertex %d", v)
		}
	}
	var total int64
	dataOff := uint32(0)
	var buf compBlockBuf
	for v := 0; v < c.n; v++ {
		prevMax := int64(-1)
		for b := c.vertOff[v]; b < c.vertOff[v+1]; b++ {
			h := c.heads[4*b : 4*b+4]
			minHub, maxHub, off, w3 := h[0], h[1], h[2], h[3]
			count := int(w3 & 0xff)
			byteLen := w3 >> 16
			if count < 1 || count > c.blockSize {
				return fmt.Errorf("label: block %d of vertex %d holds %d entries (block size %d)", b, v, count, c.blockSize)
			}
			if b+1 < c.vertOff[v+1] && count != c.blockSize {
				return fmt.Errorf("label: non-final block %d of vertex %d holds %d entries, want %d", b, v, count, c.blockSize)
			}
			if flags := w3 >> 8 & 0xff; flags != 0 {
				return fmt.Errorf("label: block %d has flag bits %#x set (this format has none)", b, flags)
			}
			if off != dataOff {
				return fmt.Errorf("label: block %d payload at offset %d, want contiguous %d", b, off, dataOff)
			}
			if uint64(off)+uint64(byteLen) > uint64(len(c.data)) {
				return fmt.Errorf("label: block %d payload [%d,%d) outside %d data bytes", b, off, off+byteLen, len(c.data))
			}
			if minHub > maxHub || int64(minHub) <= prevMax {
				return fmt.Errorf("label: block %d hub interval [%d,%d] out of order for vertex %d", b, minHub, maxHub, v)
			}
			if uint64(maxHub) >= uint64(c.n) {
				return fmt.Errorf("label: block %d has out-of-range hub %d (n=%d)", b, maxHub, c.n)
			}
			decoded, err := decodeBlockChecked(c.data[off:off+byteLen], minHub, maxHub, count, &buf)
			if err != nil {
				return fmt.Errorf("label: block %d of vertex %d: %w", b, v, err)
			}
			if decoded != int(byteLen) {
				return fmt.Errorf("label: block %d of vertex %d encodes %d bytes, header says %d", b, v, decoded, byteLen)
			}
			prevMax = int64(maxHub)
			dataOff += byteLen
			total += int64(count)
		}
	}
	if int(dataOff) != len(c.data) {
		return fmt.Errorf("label: compressed blocks cover %d payload bytes, data holds %d", dataOff, len(c.data))
	}
	c.total = total
	return nil
}

// decodeBlockChecked is the untrusting sibling of CRun.decodeBlock: it
// decodes one block payload with every read bounds- and shape-checked,
// for validation and the fuzz target. It returns the number of payload
// bytes consumed.
func decodeBlockChecked(p []byte, minHub, maxHub uint32, count int, buf *compBlockBuf) (int, error) {
	hub := uint64(minHub)
	buf[0] = hub << 32
	k := 0
	for i := 1; i < count; i++ {
		d, m := binary.Uvarint(p[k:])
		if m <= 0 {
			return 0, fmt.Errorf("bad hub delta varint at entry %d", i)
		}
		k += m
		hub += d + 1
		if hub > uint64(maxHub) {
			return 0, fmt.Errorf("hub %d at entry %d exceeds block maximum %d", hub, i, maxHub)
		}
		buf[i] = hub << 32
	}
	if hub != uint64(maxHub) {
		return 0, fmt.Errorf("last hub %d does not match block maximum %d", hub, maxHub)
	}
	for i := 0; i < count; i++ {
		v, m := binary.Uvarint(p[k:])
		if m <= 0 {
			return 0, fmt.Errorf("bad distance varint at entry %d", i)
		}
		if v > math.MaxUint32 {
			return 0, fmt.Errorf("distance of %d units at entry %d does not fit 32 bits", v, i)
		}
		k += m
		buf[i] |= v
	}
	return k, nil
}
