package chl

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"

	"repro/internal/label"
)

// Index file format:
//
//	magic   "CHIX"
//	flags   1 byte (bit 0: directed)
//	perm    (label.WritePerm)
//	index   (label.WriteIndex) — forward index for directed graphs
//	index   backward index, directed only
var indexMagic = [4]byte{'C', 'H', 'I', 'X'}

// Save serializes the index (labels + ranking) to w. Build metrics and
// per-node partitions are not persisted.
func (ix *Index) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(indexMagic[:]); err != nil {
		return err
	}
	var flags byte
	if ix.directed != nil {
		flags |= 1
	}
	if err := bw.WriteByte(flags); err != nil {
		return err
	}
	if err := label.WritePerm(bw, ix.perm); err != nil {
		return err
	}
	if ix.directed != nil {
		if err := label.WriteIndex(bw, ix.directed.Forward); err != nil {
			return err
		}
		if err := label.WriteIndex(bw, ix.directed.Backward); err != nil {
			return err
		}
	} else {
		if err := label.WriteIndex(bw, ix.ranked); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SaveFile writes the index to a file.
func (ix *Index) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ix.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load deserializes an index written by Save.
func Load(r io.Reader) (*Index, error) {
	br := bufio.NewReader(r)
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("chl: reading magic: %w", err)
	}
	if hdr != indexMagic {
		return nil, fmt.Errorf("chl: bad index magic %q", hdr[:])
	}
	flags, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("chl: reading flags: %w", err)
	}
	perm, err := label.ReadPerm(br)
	if err != nil {
		return nil, err
	}
	rank := make([]int, len(perm))
	for pos, v := range perm {
		rank[v] = pos
	}
	ix := &Index{n: len(perm), perm: perm, rank: rank}
	if flags&1 != 0 {
		fwd, err := label.ReadIndex(br)
		if err != nil {
			return nil, err
		}
		bwd, err := label.ReadIndex(br)
		if err != nil {
			return nil, err
		}
		ix.directed = &label.DirectedIndex{Forward: fwd, Backward: bwd}
	} else {
		ix.ranked, err = label.ReadIndex(br)
		if err != nil {
			return nil, err
		}
	}
	return ix, nil
}

// LoadFile reads an index from a file.
func LoadFile(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// Flat serving format:
//
//	magic   "CHFX"
//	version 1 byte (2 for undirected, 3 for directed)
//	padlen  1 byte            version ≥ 2 only
//	pad     padlen zero bytes version ≥ 2 only
//	perm    (label.WritePerm) — rank → original id
//	flat    packed label store; runs are ordered by original vertex id,
//	        hub ids are in rank space. Version ≤ 2: one CHLF payload
//	        (label.FlatIndex). Version 3: one CHLD payload packing the
//	        forward and backward runs of a directed index
//	        (label.WriteDirectedFlat). Version 4: one CHLC payload of
//	        compressed label blocks, one or two halves
//	        (label.WriteCompressedFlat).
//
// Versions 2 and 3 insert pad bytes sized so that the payload's entry
// array(s) land on an 8-byte boundary within the file, which lets
// LoadFlatMapped serve the arrays zero-copy straight from a memory
// mapping; version 4 needs (and pads to) only a 4-byte boundary, since a
// CHLC payload holds no 8-byte words. Version 1 files (unpadded,
// undirected) are still read by the copying loader. Version 4 is written
// only when the caller compresses explicitly (FlatIndex.Compress, the
// -compress CLI flag): v2/v3 remain the defaults, so existing outputs
// stay byte-identical across this change.
//
// See ARCHITECTURE.md for the byte-level layout of the CHLF and CHLD
// payloads.
var flatMagic = [4]byte{'C', 'H', 'F', 'X'}

const (
	flatVersionCompressed = 4 // compressed label blocks (either directedness); CHLC payload
	flatVersionDirected   = 3 // written for directed indexes; CHLD payload
	flatVersion           = 2 // written for undirected; entries 8-byte aligned for mmap
	flatVersionLegacy     = 1 // still read: identical to 2 but unpadded
)

// flatPad returns the pad length for an undirected flat file over n
// vertices: the bytes between the pad-length byte and the permutation
// that bring the CHLF entries array to an 8-byte file offset. Everything
// before the entries — 6 header bytes, the pad, the 4+4n permutation,
// the 17-byte CHLF header, the 4(n+1) offsets — sums to 31+pad (mod 8),
// so the pad is the same for every n; the formula keeps the writer and
// the mapped loader honest about why.
func flatPad(n int) int {
	pre := 6 + (4 + 4*n) + 17 + 4*(n+1)
	return (8 - pre%8) % 8
}

// flatPadDirected is flatPad for the version-3 directed layout: the
// 25-byte CHLD header and the two 4(n+1)-byte offset arrays precede the
// entry arrays, so everything before them sums to 43+12n+pad; both entry
// arrays start 8-aligned when that total is a multiple of 8 (the
// backward array follows the forward one at a multiple of 8 bytes).
func flatPadDirected(n int) int {
	pre := 6 + (4 + 4*n) + label.DirectedFlatHeaderBytes + 2*4*(n+1)
	return (8 - pre%8) % 8
}

// flatPadCompressed is flatPad for the version-4 compressed layout. A
// CHLC payload holds only uint32 arrays and raw bytes, so 4-byte
// alignment of the payload base suffices (its header is a multiple of 4
// and all word arrays precede the byte payloads): the 6 framing bytes
// plus the 4+4n permutation leave the base at 2 (mod 4), so the pad is a
// constant 2.
func flatPadCompressed(n int) int {
	pre := 6 + (4 + 4*n)
	return (4 - pre%4) % 4
}

// Save serializes the flat index (packed labels + ranking) to w —
// version 2 for undirected indexes, version 3 (both label halves) for
// directed ones.
func (fx *FlatIndex) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(flatMagic[:]); err != nil {
		return err
	}
	ver, pad := byte(flatVersion), flatPad(len(fx.perm))
	switch {
	case fx.Compressed():
		ver, pad = flatVersionCompressed, flatPadCompressed(len(fx.perm))
	case fx.Directed():
		ver, pad = flatVersionDirected, flatPadDirected(len(fx.perm))
	}
	if err := bw.WriteByte(ver); err != nil {
		return err
	}
	if err := bw.WriteByte(byte(pad)); err != nil {
		return err
	}
	if _, err := bw.Write(make([]byte, pad)); err != nil {
		return err
	}
	if err := label.WritePerm(bw, fx.perm); err != nil {
		return err
	}
	// The container switch: each payload writer takes its concrete halves.
	var err error
	switch fwd := fx.fwd.(type) {
	case *label.CompressedIndex:
		var bwd *label.CompressedIndex // nil marks the payload undirected
		if fx.Directed() {
			bwd = fx.bwd.(*label.CompressedIndex)
		}
		_, err = label.WriteCompressedFlat(bw, fwd, bwd)
	case *label.FlatIndex:
		if fx.Directed() {
			_, err = label.WriteDirectedFlat(bw, fwd, fx.bwd.(*label.FlatIndex))
		} else {
			_, err = fwd.WriteTo(bw)
		}
	}
	if err != nil {
		return err
	}
	return bw.Flush()
}

// ContentHash returns a durable identity for the index's content: an
// FNV-1a hash of its serialized (Save) byte stream, truncated to 53 bits
// (so it survives the float64 round trip JSON consumers impose — the
// router's /reload proxy decodes identities from JSON numbers) and never
// zero (zero means "no identity observed" on the wire). Two processes
// serving byte-identical snapshots — e.g. a coordinated restart over the
// same shard file — report the same ContentHash, which is what lets the
// router keep its answer cache across restarts that changed nothing.
func (fx *FlatIndex) ContentHash() uint64 {
	h := fnv.New64a()
	_ = fx.Save(h) // writes to a hash.Hash64 cannot fail
	v := h.Sum64() & (1<<53 - 1)
	if v == 0 {
		v = 1
	}
	return v
}

// SaveFile writes the flat index to a file.
func (fx *FlatIndex) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fx.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFlat deserializes a flat index written by FlatIndex.Save.
func LoadFlat(r io.Reader) (*FlatIndex, error) {
	br := bufio.NewReader(r)
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("chl: reading flat magic: %w", err)
	}
	if hdr != flatMagic {
		return nil, fmt.Errorf("chl: bad flat index magic %q", hdr[:])
	}
	ver, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("chl: reading flat version: %w", err)
	}
	switch ver {
	case flatVersionLegacy:
		// No alignment pad.
	case flatVersion, flatVersionDirected, flatVersionCompressed:
		pad, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("chl: reading flat pad length: %w", err)
		}
		if _, err := io.CopyN(io.Discard, br, int64(pad)); err != nil {
			return nil, fmt.Errorf("chl: skipping flat pad: %w", err)
		}
	default:
		return nil, fmt.Errorf("chl: unsupported flat index version %d (want ≤ %d)", ver, flatVersionCompressed)
	}
	perm, err := label.ReadPerm(br)
	if err != nil {
		return nil, err
	}
	// The container switch: each version carries its own payload reader.
	var fwd, bwd label.Store
	switch ver {
	case flatVersionCompressed:
		cf, cb, err := label.ReadCompressedFlat(br)
		if err != nil {
			return nil, err
		}
		fwd = cf
		if cb != nil { // a typed nil must not become a non-nil Store
			bwd = cb
		}
	case flatVersionDirected:
		f, b, err := label.ReadDirectedFlat(br)
		if err != nil {
			return nil, err
		}
		fwd, bwd = f, b
	default:
		flat, err := label.ReadFlat(br)
		if err != nil {
			return nil, err
		}
		fwd = flat
	}
	if fwd.NumVertices() != len(perm) {
		return nil, fmt.Errorf("chl: flat index covers %d vertices but permutation has %d", fwd.NumVertices(), len(perm))
	}
	return newFlatIndex(fwd, bwd, perm), nil
}

// LoadFlatFile reads a flat index from a file into the heap. It accepts
// every CHFX version; for the zero-copy serving path use OpenFlat, which
// prefers LoadFlatMapped and falls back to this loader.
func LoadFlatFile(path string) (*FlatIndex, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadFlat(f)
}

// LoadFlatMapped memory-maps the flat index file at path and serves the
// label arrays zero-copy from the mapping: loading is O(validation)
// rather than O(copy), the kernel pages label data in on demand, and
// concurrent serving processes of the same file share one physical copy.
// Only the small rank permutation is materialized on the heap.
//
// The returned index holds the mapping until Close is called; the file
// must not be modified or truncated while mapped (replace index files by
// writing a new file and reloading, never in place — Server.Reload
// encapsulates that discipline). Errors wrapping label.ErrNotMappable
// mean the file is valid but cannot be mapped on this host (no mmap
// support, big-endian, or an unpadded version-1 file); OpenFlat handles
// the fallback.
func LoadFlatMapped(path string) (*FlatIndex, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// Parse the CHFX framing with exact reads (no buffering) so the byte
	// offset of the CHLF payload is known precisely.
	var hdr [6]byte
	if _, err := io.ReadFull(f, hdr[:6]); err != nil {
		return nil, fmt.Errorf("chl: reading flat header: %w", err)
	}
	if [4]byte(hdr[:4]) != flatMagic {
		return nil, fmt.Errorf("chl: bad flat index magic %q", hdr[:4])
	}
	off := int64(6)
	ver := hdr[4]
	switch ver {
	case flatVersionLegacy:
		// Version 1 has no pad byte: hdr[5] was the first permutation
		// byte. Its arrays are unaligned anyway, so don't bother
		// rewinding — report not-mappable and let OpenFlat fall back.
		return nil, fmt.Errorf("%w: CHFX version 1 predates alignment padding", label.ErrNotMappable)
	case flatVersion, flatVersionDirected, flatVersionCompressed:
		off += int64(hdr[5])
		if _, err := f.Seek(off, io.SeekStart); err != nil {
			return nil, fmt.Errorf("chl: seeking past flat pad: %w", err)
		}
	default:
		return nil, fmt.Errorf("chl: unsupported flat index version %d (want ≤ %d)", ver, flatVersionCompressed)
	}
	var cnt [4]byte
	if _, err := io.ReadFull(f, cnt[:]); err != nil {
		return nil, fmt.Errorf("chl: reading perm length: %w", err)
	}
	n := int64(binary.LittleEndian.Uint32(cnt[:]))
	// Bound the perm allocation by the file's actual size before trusting
	// the count — a corrupt or hostile header must not be able to demand
	// gigabytes (this loader feeds POST /reload).
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if off+4+4*n > st.Size() {
		return nil, fmt.Errorf("chl: perm of %d entries does not fit in file of %d bytes", n, st.Size())
	}
	// Replay the already-consumed length prefix, then let ReadPerm parse
	// straight from the file (its internal buffering may read past the
	// perm; the payload below is re-addressed by offset, not by reading
	// on).
	perm, err := label.ReadPerm(io.MultiReader(bytes.NewReader(cnt[:]), f))
	if err != nil {
		return nil, err
	}
	off += 4 + 4*n
	// Map from the SAME open descriptor the framing was read from: an
	// atomic-rename deploy racing this load must not pair one inode's
	// permutation with another's label arrays.
	var (
		fwd, bwd label.Store
		closer   func() error
	)
	switch ver {
	case flatVersionCompressed:
		cf, cb, c, err := label.MapCompressedFlatFile(f, off)
		if err != nil {
			return nil, err
		}
		fwd, closer = cf, c
		if cb != nil { // a typed nil must not become a non-nil Store
			bwd = cb
		}
	case flatVersionDirected:
		fw, bw, c, err := label.MapDirectedFlatFile(f, off)
		if err != nil {
			return nil, err
		}
		fwd, bwd, closer = fw, bw, c
	default:
		flat, c, err := label.MapFlatFile(f, off)
		if err != nil {
			return nil, err
		}
		fwd, closer = flat, c
	}
	if fwd.NumVertices() != len(perm) {
		closer()
		return nil, fmt.Errorf("chl: flat index covers %d vertices but permutation has %d", fwd.NumVertices(), len(perm))
	}
	fx := newFlatIndex(fwd, bwd, perm)
	fx.close, fx.mapped = closer, true
	return fx, nil
}

// OpenFlat opens a flat index file for serving: memory-mapped when the
// host and file allow it, otherwise copied to the heap. This is the
// loader the serving tier (Server, cmd/chlquery -serve) uses; check
// Mapped to see which path was taken, and Close the index when done.
func OpenFlat(path string) (*FlatIndex, error) {
	fx, err := LoadFlatMapped(path)
	if err == nil {
		return fx, nil
	}
	if !errors.Is(err, label.ErrNotMappable) {
		return nil, err
	}
	return LoadFlatFile(path)
}
