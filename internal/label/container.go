package label

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"unsafe"
)

// The on-disk container: the one file format every persisted labeling
// uses, whichever encoding holds the labels (all integers little endian):
//
//	magic     [4]byte "CHFX"
//	version   uint8   ContainerVersion
//	encoding  uint8   EncPacked | EncCompressed
//	halves    uint8   1 (undirected) or 2 (directed: forward, then backward)
//	reserved  uint8   0
//	unitExp   uint8   k in [0, MaxUnitExp]: every stored distance counts units of 2^-k
//	lengths   one uint64 byte length per section, in file order
//	sections  each starting at the next multiple of 8, zero padded
//
// The sections are the rank permutation (uint32 per rank: rank → original
// id), then per half the encoding's arrays:
//
//	EncPacked      offsets (n+1)×uint32 | entries total×uint64
//	EncCompressed  offsets (n+1)×uint32 | data bytes (one varint stream per vertex)
//
// Nothing but the lengths is declared: n and the label total are what the
// sections say they are, and a length is never used before it has been
// checked against the bytes actually present.
// Because every section starts 8-aligned relative to the file, every
// array is aligned for its element type wherever the file is based, so a
// little-endian host serves all of them in place — from a memory mapping
// (MapContainer) or from the buffer the file was read into
// (ReadContainer) through the same OpenContainer.

var containerMagic = [4]byte{'C', 'H', 'F', 'X'}

// ContainerVersion is the one container version this build writes and
// reads. Index files are derived artefacts, so older ones are refused
// (with the command that rebuilds them) rather than converted.
const ContainerVersion = 6

// headerLen is the fixed header before the section lengths.
const headerLen = 9

// ioChunk caps one Write or Read of container bytes. Handing the kernel a
// whole multi-megabyte array at once measured several times slower, with
// 30–40 ms stalls, than the same bytes in 64 KiB pieces (6.5 MB file, Linux
// 6.18 ext4: write 30 vs 3 ms; read 2 ms either way but only the single
// call stalls).
const ioChunk = 1 << 16

// Encoding names how a container holds its labels. Every persisted
// distance is a uint32 count of the header's unit. Encoding 1 held the
// builder's float64 slices and encoding 3 compressed runs as indexed
// blocks; both are retired, and such a file is refused with the rebuild
// hint.
type Encoding uint8

const (
	EncPacked     Encoding = 2 // fixed-width serving form (*FlatIndex)
	EncCompressed Encoding = 4 // one delta+varint stream per vertex (*CompressedIndex)
)

func (e Encoding) String() string {
	switch e {
	case EncPacked:
		return "packed"
	case EncCompressed:
		return "compressed"
	}
	return fmt.Sprintf("Encoding(%d)", uint8(e))
}

// encWidths lists, per encoding, the element size in bytes of each array
// of one half, in file order.
var encWidths = [...][]int{
	EncPacked:     {4, 8},
	EncCompressed: {4, 1},
}

// ErrNotMappable reports that a container cannot be served in place on
// this host — the platform has no mmap, the host is big endian, or the
// bytes are based at an address that is not a multiple of 8. It never
// indicates corruption; the copying open remains a sound fallback.
var ErrNotMappable = errors.New("label: container cannot be served in place")

// littleEndian reports whether the host stores integers in the byte
// order the container's arrays are written in.
var littleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Container is a persisted labeling: the rank permutation and one
// (undirected) or two (forward, backward) Stores of a single encoding and
// a single unit.
type Container struct {
	Perm   []int // rank → original id
	Halves []Store

	// mapping is the file mapping the arrays alias when the container
	// came from MapContainer; nil otherwise.
	mapping []byte
}

// Encoding returns the encoding of the container's halves.
func (c *Container) Encoding() Encoding { return c.Halves[0].encoding() }

// WriteTo writes the container to w, implementing io.WriterTo: the header,
// then the arrays' own bytes (encoded first only on a big-endian host).
func (c *Container) WriteTo(w io.Writer) (int64, error) {
	if len(c.Halves) != 1 && len(c.Halves) != 2 {
		return 0, fmt.Errorf("label: container has %d halves (want 1 or 2)", len(c.Halves))
	}
	enc, k := c.Encoding(), c.Halves[0].UnitExp()
	for _, h := range c.Halves {
		if h.encoding() != enc {
			return 0, fmt.Errorf("label: container halves are %s and %s encoded", enc, h.encoding())
		}
		if h.UnitExp() != k {
			return 0, fmt.Errorf("label: container halves count units of 2^-%d and 2^-%d", k, h.UnitExp())
		}
		if h.NumVertices() != len(c.Perm) {
			return 0, fmt.Errorf("label: container half covers %d vertices but permutation has %d", h.NumVertices(), len(c.Perm))
		}
	}
	perm := make([]uint32, len(c.Perm))
	for i, p := range c.Perm {
		perm[i] = uint32(p)
	}
	secs := [][]byte{wordBytes(perm)}
	for _, h := range c.Halves {
		secs = append(secs, h.arrays()...)
	}
	hdr := make([]byte, headerLen+8*len(secs))
	copy(hdr, containerMagic[:])
	hdr[4], hdr[5], hdr[6], hdr[8] = ContainerVersion, byte(enc), byte(len(c.Halves)), byte(k)
	for i, s := range secs {
		binary.LittleEndian.PutUint64(hdr[headerLen+8*i:], uint64(len(s)))
	}
	var written int64
	write := func(p []byte) error {
		for len(p) > 0 {
			k, err := w.Write(p[:min(len(p), ioChunk)])
			written += int64(k)
			if err != nil {
				return err
			}
			p = p[k:]
		}
		return nil
	}
	if err := write(hdr); err != nil {
		return written, err
	}
	var zeros [8]byte
	for _, s := range secs {
		if err := write(zeros[:-written&7]); err != nil {
			return written, err
		}
		if err := write(s); err != nil {
			return written, err
		}
	}
	return written, nil
}

// wordBytes returns the little-endian byte image of xs: xs itself on a
// little-endian host, an encoded copy otherwise.
func wordBytes[T uint32 | uint64](xs []T) []byte {
	if len(xs) == 0 {
		return nil
	}
	if littleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&xs[0])), len(xs)*int(unsafe.Sizeof(xs[0])))
	}
	return encodeWords(xs)
}

func encodeWords[T uint32 | uint64](xs []T) []byte {
	size := int(unsafe.Sizeof(T(0)))
	out := make([]byte, len(xs)*size)
	for i, x := range xs {
		if size == 4 {
			binary.LittleEndian.PutUint32(out[4*i:], uint32(x))
		} else {
			binary.LittleEndian.PutUint64(out[8*i:], uint64(x))
		}
	}
	return out
}

// words views a section as little-endian Ts: in place when alias is set
// (OpenContainer has established byte order and alignment by then),
// decoded into fresh memory otherwise. It is the one place file bytes
// become typed arrays.
func words[T uint32 | uint64](b []byte, alias bool) []T {
	size := int(unsafe.Sizeof(T(0)))
	if len(b) < size {
		return nil
	}
	if alias {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), len(b)/size)
	}
	out := make([]T, len(b)/size)
	for i := range out {
		if size == 4 {
			out[i] = T(binary.LittleEndian.Uint32(b[4*i:]))
		} else {
			out[i] = T(binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
	return out
}

// rebuildHint ends every refusal of a file this build does not read.
const rebuildHint = "index files are derived: rebuild this one with `chl -out` (then `chlquery -save` / `-split` for compressed or shard files)"

// splitSections parses the container framing of data and returns the
// header fields and the sections as sub-slices of data, perm first. Every
// length is checked against the bytes present before it is used, pad bytes
// must be zero and the last section must end the file, so an accepted
// input is exactly what WriteTo produces for its content.
func splitSections(data []byte) (enc Encoding, halves, k int, secs [][]byte, err error) {
	fail := func(format string, args ...any) (Encoding, int, int, [][]byte, error) {
		return 0, 0, 0, nil, fmt.Errorf("label: "+format, args...)
	}
	if len(data) < headerLen {
		return fail("container too short (%d bytes)", len(data))
	}
	if [4]byte(data[:4]) != containerMagic {
		return fail("not a CHFX container (magic %q); %s", data[:4], rebuildHint)
	}
	if v := data[4]; v != ContainerVersion {
		return fail("CHFX container version %d is not supported (this build reads and writes version %d only); %s", v, ContainerVersion, rebuildHint)
	}
	enc, halves, k = Encoding(data[5]), int(data[6]), int(data[8])
	if enc != EncPacked && enc != EncCompressed {
		return fail("container declares encoding %d, which this build does not read; %s", data[5], rebuildHint)
	}
	if halves != 1 && halves != 2 {
		return fail("container declares %d halves (want 1 or 2)", halves)
	}
	if data[7] != 0 {
		return fail("container header byte 7 is %d (reserved, must be 0)", data[7])
	}
	if k > MaxUnitExp {
		return fail("container declares a unit of 2^-%d (k must be in [0,%d])", k, MaxUnitExp)
	}
	widths := encWidths[enc]
	nsec := 1 + halves*len(widths)
	pos := headerLen + 8*nsec
	if len(data) < pos {
		return fail("container truncated inside the section table (%d bytes, table ends at %d)", len(data), pos)
	}
	secs = make([][]byte, nsec)
	for i := range secs {
		for ; pos%8 != 0; pos++ {
			if pos >= len(data) || data[pos] != 0 {
				return fail("container section %d is not preceded by zero padding", i)
			}
		}
		length := binary.LittleEndian.Uint64(data[headerLen+8*i:])
		if length > uint64(len(data)-pos) {
			return fail("container section %d declares %d bytes, %d remain", i, length, len(data)-pos)
		}
		width := 4
		if i > 0 {
			width = widths[(i-1)%len(widths)]
		}
		if length%uint64(width) != 0 {
			return fail("container section %d is %d bytes, not a whole number of %d-byte words", i, length, width)
		}
		end := pos + int(length)
		secs[i] = data[pos:end:end]
		pos = end
	}
	if pos != len(data) {
		return fail("container has %d trailing bytes", len(data)-pos)
	}
	return enc, halves, k, secs, nil
}

// OpenContainer parses and validates a container held in data — the one
// reader behind every load path. With alias set the returned arrays point
// into data, which the caller keeps alive and unmodified for as long as
// the container's halves are in use; a host that cannot do that (big
// endian, or data based off an 8-byte boundary) gets ErrNotMappable.
// Without it every array is decoded into fresh memory. Either way each
// half has passed its encoding's full structural validation and the
// permutation is a permutation.
func OpenContainer(data []byte, alias bool) (*Container, error) {
	c, _, err := openContainer(data, alias)
	return c, err
}

// openContainer is OpenContainer, also returning the sections it cut.
func openContainer(data []byte, alias bool) (*Container, [][]byte, error) {
	enc, halves, unitExp, secs, err := splitSections(data)
	if err != nil {
		return nil, nil, err
	}
	if alias && !littleEndian {
		return nil, nil, fmt.Errorf("%w: host is big endian", ErrNotMappable)
	}
	if alias && uintptr(unsafe.Pointer(&data[0]))%8 != 0 {
		return nil, nil, fmt.Errorf("%w: bytes are not based on an 8-byte boundary", ErrNotMappable)
	}
	c := &Container{Perm: make([]int, len(secs[0])/4)}
	seen := make([]bool, len(c.Perm))
	for i := range c.Perm {
		p := binary.LittleEndian.Uint32(secs[0][4*i:])
		if int64(p) >= int64(len(c.Perm)) || seen[p] {
			return nil, nil, fmt.Errorf("label: perm entry %d=%d is not a permutation", i, p)
		}
		seen[p] = true
		c.Perm[i] = int(p)
	}
	k := len(encWidths[enc])
	for h := 0; h < halves; h++ {
		half, err := openHalf(enc, unitExp, secs[1+h*k:1+(h+1)*k], alias)
		if err != nil {
			return nil, nil, fmt.Errorf("%s half: %w", [...]string{"forward", "backward"}[h], err)
		}
		if half.NumVertices() != len(c.Perm) {
			return nil, nil, fmt.Errorf("label: container half covers %d vertices but permutation has %d", half.NumVertices(), len(c.Perm))
		}
		c.Halves = append(c.Halves, half)
	}
	return c, secs, nil
}

// openHalf builds one half over its sections and runs the encoding's
// structural validation on it.
func openHalf(enc Encoding, unitExp int, s [][]byte, alias bool) (Store, error) {
	if enc == EncPacked {
		f := &FlatIndex{offsets: words[uint32](s[0], alias), entries: words[uint64](s[1], alias), unitExp: unitExp}
		return f, f.validate()
	}
	c := &CompressedIndex{offsets: words[uint32](s[0], alias), data: s[1], unitExp: unitExp}
	c.n = len(c.offsets) - 1
	if !alias {
		c.data = append([]byte(nil), s[1]...)
	}
	return c, c.validate()
}

// ReadContainer reads a whole container from r into the heap: the bytes
// are read once (into a buffer sized up front when r is a file) and, where
// the host allows, served in place from that buffer — the mapped and the
// heap load differ only in where the bytes come from.
func ReadContainer(r io.Reader) (*Container, error) {
	var data []byte
	if f, ok := r.(*os.File); ok {
		if st, err := f.Stat(); err == nil && st.Size() < math.MaxInt {
			data = make([]byte, 0, st.Size()+1) // the spare byte is where the last Read finds EOF
		}
	}
	for {
		if len(data) == cap(data) {
			data = append(data, 0)[:len(data)]
		}
		n, err := r.Read(data[len(data):min(cap(data), len(data)+ioChunk)])
		data = data[:len(data)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("label: reading container: %w", err)
		}
	}
	c, err := OpenContainer(data, true)
	if errors.Is(err, ErrNotMappable) {
		c, err = OpenContainer(data, false)
	}
	return c, err
}

// MapContainer memory-maps f and opens the container in it in place:
// loading is one validation scan rather than a copy, the kernel pages
// label data in on demand, and every process serving the same file
// shares one physical copy. The mapping is taken from f's descriptor,
// not its path, so an atomic-rename deploy racing the load cannot pair
// one inode's header with another's arrays; f may be closed as soon as
// MapContainer returns, and Close releases the mapping. Errors wrapping
// ErrNotMappable mean "valid here only through ReadContainer"; any other
// error means the file is unreadable or corrupt.
func MapContainer(f *os.File) (*Container, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data, err := mmapFile(f, st.Size())
	if err != nil {
		if errors.Is(err, ErrNotMappable) {
			return nil, err
		}
		return nil, fmt.Errorf("%w: mmap %s: %v", ErrNotMappable, f.Name(), err)
	}
	c, secs, err := openContainer(data, true)
	if err != nil {
		munmapBytes(data)
		return nil, err
	}
	c.mapping = data
	// Paging hints (no-ops off Linux): the permutation and offsets are
	// touched by every query, so prefetch and keep them; the label
	// bodies — the last array of each half — are probed at two random
	// vertices per query, so readahead there is wasted.
	k := (len(secs) - 1) / len(c.Halves)
	for i, s := range secs {
		if i > 0 && i%k == 0 {
			madviseAligned(s, adviceRandom)
		} else {
			madviseAligned(s, adviceWillNeed)
		}
	}
	return c, nil
}

// Prefault faults a mapped container in before the first query lands on
// it and returns the number of pages walked; 0 when nothing is mapped.
func (c *Container) Prefault() int { return prefault(c.mapping) }

// Close releases the mapping of a container opened by MapContainer, whose
// halves must not be used afterwards; otherwise it is a no-op. It is
// idempotent.
func (c *Container) Close() error {
	m := c.mapping
	c.mapping = nil
	if m == nil {
		return nil
	}
	return munmapBytes(m)
}

func (f *FlatIndex) encoding() Encoding { return EncPacked }
func (f *FlatIndex) arrays() [][]byte {
	return [][]byte{wordBytes(f.offsets), wordBytes(f.entries)}
}

func (c *CompressedIndex) encoding() Encoding { return EncCompressed }
func (c *CompressedIndex) arrays() [][]byte {
	return [][]byte{wordBytes(c.offsets), c.data}
}
