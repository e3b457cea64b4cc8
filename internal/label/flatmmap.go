package label

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"unsafe"
)

// Zero-copy serving: the CHLF payload was designed so that its two arrays
// are byte-identical to the in-memory representation on a little-endian
// machine. MapFlat exploits that by pointing a FlatIndex's offsets and
// entries slices directly at a memory-mapped file region — the kernel
// pages label data in on demand and shares one physical copy between
// every serving process of the same file. Nothing is decoded or copied;
// loading is one sequential validation scan of the mapping (which does
// fault the file in, so cold-load time is bounded by sequential read
// bandwidth, not by allocation and decode), and resident memory for the
// arrays is shared page cache rather than per-process heap.
//
// Mapping has preconditions a generic reader does not: the host must be
// little endian, and the arrays must be properly aligned within the file
// (uint32 offsets on a 4-byte boundary, uint64 entries on an 8-byte
// boundary — guaranteed by CHFX version 2's pad byte, not by version 1).
// When any precondition fails, MapFlat reports ErrNotMappable and callers
// fall back to the copying ReadFlat loader, which handles every file the
// format allows.

// ErrNotMappable reports that a flat payload cannot be served zero-copy
// on this host — the platform has no mmap, the host is big endian, or the
// payload's arrays are misaligned within the file (CHFX version 1 files).
// It never indicates corruption; the heap loader remains a sound
// fallback.
var ErrNotMappable = errors.New("label: flat payload cannot be memory-mapped")

// flatHeaderBytes is the CHLF header size: magic (4) + version (1) +
// n (4) + total (8). The arrays follow immediately.
const flatHeaderBytes = 17

// nativeLittleEndian reports whether the host stores integers little
// endian, the byte order the CHLF arrays are written in.
func nativeLittleEndian() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}

// MapFlat constructs a FlatIndex whose arrays alias data, which must hold
// a CHLF payload starting at its first byte (trailing bytes are ignored).
// The same structural validation as ReadFlat runs before the index is
// returned — corrupt payloads are rejected, not served. The caller keeps
// data alive (and, for a memory mapping, mapped) for the lifetime of the
// returned index; the index is read-only and safe for concurrent readers.
func MapFlat(data []byte) (*FlatIndex, error) {
	if !nativeLittleEndian() {
		return nil, fmt.Errorf("%w: host is big endian", ErrNotMappable)
	}
	if len(data) < flatHeaderBytes {
		return nil, fmt.Errorf("label: flat payload too short (%d bytes)", len(data))
	}
	if [4]byte(data[:4]) != flatMagic {
		return nil, fmt.Errorf("label: bad flat magic %q", data[:4])
	}
	if v := data[4]; v != flatVersion {
		return nil, fmt.Errorf("label: unsupported flat version %d (want %d)", v, flatVersion)
	}
	n := int(binary.LittleEndian.Uint32(data[5:9]))
	total := binary.LittleEndian.Uint64(data[9:17])
	if total > 1<<32 {
		return nil, fmt.Errorf("label: implausible label count %d", total)
	}
	offBytes := int64(n+1) * 4
	need := flatHeaderBytes + offBytes + int64(total)*8
	if int64(len(data)) < need {
		return nil, fmt.Errorf("label: flat payload truncated: %d bytes, need %d", len(data), need)
	}
	offB := data[flatHeaderBytes : flatHeaderBytes+offBytes]
	if uintptr(unsafe.Pointer(&offB[0]))%4 != 0 {
		return nil, fmt.Errorf("%w: offsets array misaligned (file written by an old CHFX version?)", ErrNotMappable)
	}
	f := &FlatIndex{
		offsets: unsafe.Slice((*uint32)(unsafe.Pointer(&offB[0])), n+1),
	}
	if total > 0 {
		entB := data[flatHeaderBytes+offBytes : need]
		if uintptr(unsafe.Pointer(&entB[0]))%8 != 0 {
			return nil, fmt.Errorf("%w: entries array misaligned (file written by an old CHFX version?)", ErrNotMappable)
		}
		f.entries = unsafe.Slice((*uint64)(unsafe.Pointer(&entB[0])), total)
	}
	if err := f.validate(); err != nil {
		return nil, err
	}
	f.raw = data[:need]
	return f, nil
}

// Prefault faults the whole mapped payload in before the first query lands
// on it — the serving tier calls this before swapping a fresh snapshot in
// so the first seconds of traffic don't pay major-fault latency. It
// returns the number of pages walked; on a heap-backed index it is a
// no-op returning 0.
func (f *FlatIndex) Prefault() int { return prefault(f.raw) }

// MapFlatAt memory-maps the file at path and serves the CHLF payload
// beginning at byte offset off zero-copy. It returns the index and a
// closer that releases the mapping; the caller must not use the index
// after calling the closer, and must keep the file unmodified while
// mapped (truncating a mapped file faults readers). Errors wrapping
// ErrNotMappable mean "use ReadFlat instead"; other errors mean the file
// is unreadable or corrupt.
func MapFlatAt(path string, off int64) (*FlatIndex, func() error, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	// The mapping (if any) is independent of the descriptor.
	defer f.Close()
	return MapFlatFile(f, off)
}

// MapFlatFile is MapFlatAt over an already-open file, for callers that
// parsed framing from f and must map the same inode — re-opening by path
// would let an atomic-rename deploy swap the file between the reads and
// the mapping. f's read position is ignored (the mapping is absolute)
// and f may be closed as soon as MapFlatFile returns.
func MapFlatFile(f *os.File, off int64) (*FlatIndex, func() error, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	size := st.Size()
	if off < 0 || off >= size {
		return nil, nil, fmt.Errorf("label: flat payload offset %d outside file of %d bytes", off, size)
	}
	data, err := mmapFile(f, size)
	if err != nil {
		if errors.Is(err, ErrNotMappable) {
			return nil, nil, err
		}
		return nil, nil, fmt.Errorf("%w: mmap %s: %v", ErrNotMappable, f.Name(), err)
	}
	fx, err := MapFlat(data[off:])
	if err != nil {
		munmapBytes(data)
		return nil, nil, err
	}
	adviseFlat(data, off, fx)
	return fx, func() error { return munmapBytes(data) }, nil
}

// adviseFlat hands the kernel access-pattern hints for a freshly mapped
// CHLF payload at byte offset off of the mapping: the offsets array is
// touched by every query and read near-sequentially during validation, so
// it gets MADV_WILLNEED (prefetch now, keep resident); the entries array
// is probed at two random vertices per query, so it gets MADV_RANDOM
// (don't waste readahead on neighbours that won't be asked for). The
// spans come from the index MapFlat just built over this payload, not
// from re-parsing the header. Both are hints — madviseSpan is a no-op
// off Linux (see madvise_other.go) and errors are ignored, so serving is
// identical everywhere, just slower to warm where the hints don't apply.
func adviseFlat(data []byte, off int64, fx *FlatIndex) {
	offStart := off + flatHeaderBytes
	offLen := int64(len(fx.offsets)) * 4
	madviseSpan(data, offStart, offLen, adviceWillNeed)
	madviseSpan(data, offStart+offLen, int64(len(fx.entries))*8, adviceRandom)
}
