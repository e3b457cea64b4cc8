package label

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// One table for the one file format: every shape a container can take
// (encoding × directedness) goes through every way of opening one
// (mapped file, heap read, forced decode-copy), and every hostile input
// is refused on every shape.

type shape struct {
	enc      Encoding
	directed bool
	// fromBuilder marks the rows that keep the name of the retired slice
	// encoding chl -out used to write: a packed file frozen from builder
	// labels whose distances are not all integers (a unit 2^-3), which is
	// what chl -out writes now.
	fromBuilder bool
}

var shapes = []shape{
	{EncPacked, false, true}, {EncPacked, true, true},
	{EncPacked, false, false}, {EncPacked, true, false},
	{EncCompressed, false, false}, {EncCompressed, true, false},
}

func (s shape) String() string {
	name := s.enc.String()
	if s.fromBuilder {
		name = "slices"
	}
	if s.directed {
		return name + "/directed"
	}
	return name + "/undirected"
}

// container builds a valid container of the shape over n vertices: a
// shuffled permutation and independent random halves frozen at one unit,
// with distances of every size a unit count can take.
func (s shape) container(t testing.TB, n int, seed int64) *Container {
	rng := rand.New(rand.NewSource(seed))
	c := &Container{Perm: rng.Perm(n)}
	ixs := []*Index{randomLabelIndex(rng, n, 0.2)}
	if s.directed {
		ixs = append(ixs, randomLabelIndex(rng, n, 0.2))
	}
	for _, ix := range ixs {
		for v := 0; s.fromBuilder && v < n; v += 3 { // eighths: the file's unit is 2^-3
			if ls := ix.Labels(v); len(ls) > 0 {
				ls[0].Dist = 0.375 + float64(v)
			}
		}
	}
	fs, err := FreezeHalves(ixs...)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		switch s.enc {
		case EncPacked:
			c.Halves = append(c.Halves, f)
		case EncCompressed:
			ci, err := Compress(f)
			if err != nil {
				t.Fatal(err)
			}
			c.Halves = append(c.Halves, ci)
		}
	}
	return c
}

func containerBytes(t testing.TB, c *Container) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := c.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

// aligned copies b into a buffer whose start is 8-byte aligned plus skew
// (skew > 0 deliberately misaligns it).
func aligned(b []byte, skew int) []byte {
	buf := make([]byte, len(b)+16)
	off := 0
	for uintptr(unsafe.Pointer(&buf[off]))%8 != 0 {
		off++
	}
	off += skew
	copy(buf[off:], b)
	return buf[off : off+len(b) : off+len(b)]
}

// sameContainer asserts label-for-label, array-for-array equality.
func sameContainer(t *testing.T, got, want *Container) {
	t.Helper()
	if !reflect.DeepEqual(got.Perm, want.Perm) {
		t.Fatalf("perm = %v, want %v", got.Perm, want.Perm)
	}
	if len(got.Halves) != len(want.Halves) || got.Encoding() != want.Encoding() {
		t.Fatalf("%d %s halves, want %d %s", len(got.Halves), got.Encoding(), len(want.Halves), want.Encoding())
	}
	for i, w := range want.Halves {
		switch w := w.(type) {
		case *CompressedIndex:
			g := got.Halves[i].(*CompressedIndex)
			if g.n != w.n || g.total != w.total || g.unitExp != w.unitExp ||
				!reflect.DeepEqual(g.offsets, w.offsets) || !bytes.Equal(g.data, w.data) {
				t.Fatalf("half %d: compressed arrays differ", i)
			}
		case *FlatIndex:
			sameRuns(t, got.Halves[i], w)
		}
	}
}

// loadPaths are the ways a container's bytes become a Container. mapped
// reports whether the result should hold a file mapping.
var loadPaths = []struct {
	name   string
	mapped bool
	open   func(t *testing.T, file []byte) (*Container, error)
}{
	{"mapped", true, func(t *testing.T, file []byte) (*Container, error) {
		path := filepath.Join(t.TempDir(), "c.chfx")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close() // the mapping must outlive the descriptor
		return MapContainer(f)
	}},
	{"heap", false, func(t *testing.T, file []byte) (*Container, error) {
		return ReadContainer(bytes.NewReader(file))
	}},
	// What a big-endian or mmap-less host does for every load.
	{"alias=false", false, func(t *testing.T, file []byte) (*Container, error) {
		scratch := append([]byte(nil), file...)
		c, err := OpenContainer(scratch, false)
		for i := range scratch { // the copy must not depend on its source
			scratch[i] = 0xa5
		}
		return c, err
	}},
}

func checkRoundTrip(t *testing.T, s shape) {
	want := s.container(t, 50, 21)
	file := containerBytes(t, want)
	for _, lp := range loadPaths {
		t.Run(lp.name, func(t *testing.T) {
			got, err := lp.open(t, file)
			if errors.Is(err, ErrNotMappable) && lp.mapped {
				t.Skipf("platform cannot mmap: %v", err)
			}
			if err != nil {
				t.Fatal(err)
			}
			sameContainer(t, got, want)
			if again := containerBytes(t, got); !bytes.Equal(again, file) {
				t.Fatal("re-saving the loaded container changed the bytes")
			}
			if pages := got.Prefault(); (pages > 0) != lp.mapped {
				t.Fatalf("Prefault walked %d pages, mapped=%v", pages, lp.mapped)
			}
			if err := got.Close(); err != nil {
				t.Fatal(err)
			}
			if err := got.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
		})
	}
}

func TestContainerRoundTrip(t *testing.T) {
	for _, s := range shapes {
		t.Run(s.String(), func(t *testing.T) { checkRoundTrip(t, s) })
	}
}

// frame lays sections out the way WriteTo does, from raw parts — the
// hostile rows are built with it so each can lie about exactly one thing.
// hdr is the header after the magic: version, encoding, halves, the
// reserved byte and unit exponent (or, for a retired version, what it
// held).
func frame(hdr []byte, lengths []uint64, secs ...[]byte) []byte {
	out := append([]byte("CHFX"), hdr...)
	for _, l := range lengths {
		out = binary.LittleEndian.AppendUint64(out, l)
	}
	for _, s := range secs {
		for len(out)%8 != 0 {
			out = append(out, 0)
		}
		out = append(out, s...)
	}
	return out
}

const blobRow = "random 1 MiB blob"

// hostileRows returns the inputs every opener must refuse, derived from a
// valid container of the shape.
func hostileRows(t testing.TB, s shape) map[string][]byte {
	good := containerBytes(t, s.container(t, 12, 55))
	enc, halves, k, secs, err := splitSections(good)
	if err != nil {
		t.Fatal(err)
	}
	lengths := func() []uint64 {
		ls := make([]uint64, len(secs))
		for i, sec := range secs {
			ls[i] = uint64(len(sec))
		}
		return ls
	}
	reframe := func(mut func(hdr []byte, ls []uint64, secs [][]byte)) []byte {
		hdr, ls := []byte{ContainerVersion, byte(enc), byte(halves), 0, byte(k)}, lengths()
		cp := make([][]byte, len(secs))
		for i := range secs {
			cp[i] = append([]byte(nil), secs[i]...)
		}
		mut(hdr, ls, cp)
		return frame(hdr, ls, cp...)
	}
	if !bytes.Equal(reframe(func([]byte, []uint64, [][]byte) {}), good) {
		t.Fatal("frame does not reproduce WriteTo's layout")
	}
	last := len(secs) - 1
	table := headerLen + 8*len(secs) // where the section table ends
	rows := map[string][]byte{
		"empty":                     nil,
		"short magic":               []byte("CHF"),
		"header only":               good[:headerLen],
		"truncated in the table":    good[:table-3],
		"truncated before sections": good[:table],
		"truncated mid-file":        good[:len(good)/2],
		"truncated by one byte":     good[:len(good)-1],
		"trailing byte":             append(append([]byte(nil), good...), 0),
		"length larger than the file": reframe(func(_ []byte, ls []uint64, _ [][]byte) {
			ls[1] = 1 << 62
		}),
		"lengths summing past EOF": reframe(func(_ []byte, ls []uint64, _ [][]byte) {
			ls[last] += 8
		}),
		"perm with a duplicate": reframe(func(_ []byte, _ []uint64, secs [][]byte) {
			copy(secs[0][4:8], secs[0][0:4])
		}),
		"perm entry out of range": reframe(func(_ []byte, _ []uint64, secs [][]byte) {
			copy(secs[0], []byte{0xff, 0xff, 0xff, 0x7f})
		}),
		"perm shorter than the halves": reframe(func(_ []byte, ls []uint64, secs [][]byte) {
			p := []uint32{0, 1, 2}
			secs[0], ls[0] = wordBytes(p), 12
		}),
		"word section of odd length": reframe(func(_ []byte, ls []uint64, secs [][]byte) {
			secs[1], ls[1] = secs[1][:len(secs[1])-2], ls[1]-2
		}),
		"nonzero padding": func() []byte {
			b := reframe(func(_ []byte, ls []uint64, secs [][]byte) {
				secs[0], ls[0] = secs[0][:4*11], 4*11 // 11 ranks: 4 pad bytes follow the perm
			})
			b[(table+7)&^7+4*11] = 1
			return b
		}(),
		"nonzero padding after the table": func() []byte {
			b := reframe(func([]byte, []uint64, [][]byte) {})
			b[table] = 1
			return b
		}(),
		"offsets not spanning the labels": reframe(func(_ []byte, _ []uint64, secs [][]byte) {
			binary.LittleEndian.PutUint32(secs[1][len(secs[1])-4:], 1<<30)
		}),
		"offsets ending before the labels": reframe(func(_ []byte, _ []uint64, secs [][]byte) {
			end := secs[1][len(secs[1])-4:]
			binary.LittleEndian.PutUint32(end, binary.LittleEndian.Uint32(end)-1)
		}),
		"unknown encoding":           reframe(func(hdr []byte, _ []uint64, _ [][]byte) { hdr[1] = 9 }),
		"zero halves":                reframe(func(hdr []byte, _ []uint64, _ [][]byte) { hdr[2] = 0 }),
		"three halves":               reframe(func(hdr []byte, _ []uint64, _ [][]byte) { hdr[2] = 3 }),
		"reserved byte 7 set":        reframe(func(hdr []byte, _ []uint64, _ [][]byte) { hdr[3] = 64 }),
		"unit exponent out of range": reframe(func(hdr []byte, _ []uint64, _ [][]byte) { hdr[4] = MaxUnitExp + 1 }),
		blobRow: func() []byte {
			b := make([]byte, 1<<20)
			rand.New(rand.NewSource(9)).Read(b)
			return b
		}(),
	}
	if enc == EncPacked {
		// Smash the high half of the last entry: a hub out of range.
		rows["hub out of range"] = reframe(func(_ []byte, _ []uint64, secs [][]byte) {
			copy(secs[last][len(secs[last])-4:], []byte{0xff, 0xff, 0xff, 0x7f})
		})
		// Break the hub order the join kernels rely on, in the first half:
		// swap the first two entries of a vertex holding at least two.
		rows["unsorted hubs"] = reframe(func(_ []byte, _ []uint64, secs [][]byte) {
			for v := 0; 4*v+8 <= len(secs[1]); v++ {
				lo, hi := binary.LittleEndian.Uint32(secs[1][4*v:]), binary.LittleEndian.Uint32(secs[1][4*v+4:])
				if hi-lo >= 2 {
					e := secs[2][8*lo : 8*lo+16]
					copy(e, append(append([]byte(nil), e[8:]...), e[:8]...))
					return
				}
			}
			t.Fatalf("%s: fixture has no vertex with two labels", s)
		})
	} else {
		// Replace the stream of vertex 0 in the first half with run,
		// shifting the offsets after it.
		restream := func(run ...byte) []byte {
			return reframe(func(_ []byte, ls []uint64, secs [][]byte) {
				off := words[uint32](secs[1], false)
				data := append(append(append([]byte(nil), secs[2][:off[0]]...), run...), secs[2][off[1]:]...)
				shift := uint32(len(run)) - (off[1] - off[0])
				for v := 1; v < len(off); v++ {
					off[v] += shift
				}
				secs[1], secs[2], ls[2] = encodeWords(off), data, uint64(len(data))
			})
		}
		// stream encodes (hub gap, units) pairs; a gap of 2^64−1 wraps to
		// the previous hub, 2^64−2 to the one before it.
		stream := func(pairs ...uint64) []byte {
			var b []byte
			for _, x := range pairs {
				b = binary.AppendUvarint(b, x)
			}
			return b
		}
		n := uint64(len(secs[0]) / 4)
		rows["hub out of range"] = restream(stream(n, 1)...)
		rows["unsorted hubs"] = restream(stream(3, 1, 1<<64-2, 1)...)
		rows["repeated hub"] = restream(stream(3, 1, 1<<64-1, 1)...)
		rows["unit count of 2^32"] = restream(stream(0, 1<<32)...)
		rows["run ending mid-varint"] = restream(0x00, 0x81)
		rows["run ending between hub and units"] = restream(0x00, 0x01, 0x02)
		rows["overlong varint"] = restream(0x80, 0x00, 0x01)
		rows["offsets not monotone"] = reframe(func(_ []byte, _ []uint64, secs [][]byte) {
			if binary.LittleEndian.Uint32(secs[1][8:]) == uint32(len(secs[2])) {
				t.Fatalf("%s: fixture has no labels past vertex 1", s)
			}
			binary.LittleEndian.PutUint32(secs[1][4:], uint32(len(secs[2])))
		})
	}
	// One refusal per retired magic, per retired CHFX version, and for the
	// retired slice encoding (float64 builder labels).
	rows["retired encoding 1"] = reframe(func(hdr []byte, _ []uint64, _ [][]byte) { hdr[1] = 1 })
	// Encoding 3: compressed runs as indexed blocks, the block size in byte 7.
	rows["retired encoding 3"] = reframe(func(hdr []byte, _ []uint64, _ [][]byte) { hdr[1], hdr[3] = 3, 64 })
	for _, magic := range []string{"CHL1", "CHIX", "CHLF", "CHLD", "CHLC"} {
		rows["retired magic "+magic] = append([]byte(magic), good[4:]...)
	}
	for v := byte(1); v < ContainerVersion; v++ {
		rows[fmt.Sprintf("retired CHFX v%d", v)] = reframe(func(hdr []byte, _ []uint64, _ [][]byte) { hdr[0] = v })
	}
	// A file in v5's framing: an 8-byte header with no unit.
	rows["retired CHFX v5 file"] = frame([]byte{5, byte(enc), byte(halves), 0}, lengths(), secs...)
	rows["future CHFX version"] = reframe(func(hdr []byte, _ []uint64, _ [][]byte) { hdr[0] = ContainerVersion + 1 })
	return rows
}

// checkHostile asserts every hostile row of the shape is refused by open
// — an error, never a panic, and never an allocation sized by what the
// header claims rather than by the bytes present.
func checkHostile(t *testing.T, s shape, open func(data []byte) (*Container, error)) {
	for name, row := range hostileRows(t, s) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := open(row)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(8*len(row))+1<<16 {
			t.Errorf("%s: refusing %d bytes allocated %d", name, len(row), grew)
		}
		if strings.HasPrefix(name, "retired") && !strings.Contains(err.Error(), "chl -out") {
			t.Errorf("%s: refusal does not name the rebuild command: %v", name, err)
		}
	}
}

func openAliased(data []byte) (*Container, error) { return OpenContainer(aligned(data, 0), true) }
func openCopied(data []byte) (*Container, error)  { return OpenContainer(data, false) }
func openRead(data []byte) (*Container, error)    { return ReadContainer(bytes.NewReader(data)) }

func TestContainerRejectsHostile(t *testing.T) {
	for _, s := range shapes {
		t.Run(s.String(), func(t *testing.T) {
			checkHostile(t, s, openAliased)
			checkHostile(t, s, openCopied)
			checkHostile(t, s, openRead)
		})
	}
}

// A truncated file is refused at every cut, not just the ones tried above.
func TestContainerRejectsEveryTruncation(t *testing.T) {
	for _, s := range shapes {
		good := containerBytes(t, s.container(t, 9, 3))
		for cut := 0; cut < len(good); cut++ {
			if _, err := OpenContainer(good[:cut], false); err == nil {
				t.Fatalf("%s: truncation at %d of %d accepted", s, cut, len(good))
			}
		}
	}
}

// checkMisaligned: a valid container based off an 8-byte boundary cannot
// be served in place — ErrNotMappable, which is not corruption: the same
// bytes open through the copying path and hold the same labels.
func checkMisaligned(t *testing.T, s shape) {
	want := s.container(t, 10, 44)
	file := containerBytes(t, want)
	for skew := 0; skew < 8; skew++ {
		data := aligned(file, skew)
		got, err := OpenContainer(data, true)
		switch {
		case skew == 0 && err != nil:
			t.Errorf("skew 0: aligned container rejected: %v", err)
		case skew != 0 && !errors.Is(err, ErrNotMappable):
			t.Errorf("skew %d: want ErrNotMappable, got %v", skew, err)
		}
		if skew != 0 {
			if got, err = OpenContainer(data, false); err != nil {
				t.Fatalf("skew %d: copying open: %v", skew, err)
			}
		}
		sameContainer(t, got, want)
	}
}

func TestContainerMisalignedBase(t *testing.T) {
	for _, s := range shapes {
		t.Run(s.String(), func(t *testing.T) { checkMisaligned(t, s) })
	}
}

// halfUnit returns f's labels counted in units of 2^-1.
func halfUnit(f *FlatIndex) *FlatIndex {
	ix := NewIndex(f.NumVertices())
	for v := 0; v < f.NumVertices(); v++ {
		ix.SetLabels(v, f.Labels(v))
	}
	hs, err := freezeAt(1, []*Index{ix})
	if err != nil {
		panic(err)
	}
	return hs[0]
}

// The writer refuses halves that do not belong in one file.
func TestWriteDirectedFlatRejectsMismatchedHalves(t *testing.T) {
	mk := func(n int, seed int64) *FlatIndex { return Freeze(randomIndex(n, seed)) }
	comp := func(f *FlatIndex) *CompressedIndex {
		c, err := Compress(f)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	perm := rand.New(rand.NewSource(1)).Perm(10)
	for name, c := range map[string]*Container{
		"vertex counts differ": {Perm: perm, Halves: []Store{mk(10, 1), mk(11, 2)}},
		"perm length differs":  {Perm: perm[:9], Halves: []Store{mk(10, 1)}},
		"encodings differ":     {Perm: perm, Halves: []Store{mk(10, 1), comp(mk(10, 2))}},
		"units differ":         {Perm: perm, Halves: []Store{mk(10, 1), halfUnit(mk(10, 2))}},
		"no halves":            {Perm: perm},
		"three halves":         {Perm: perm, Halves: []Store{mk(10, 1), mk(10, 2), mk(10, 3)}},
	} {
		if _, err := c.WriteTo(&bytes.Buffer{}); err == nil {
			t.Errorf("%s: written", name)
		}
	}
}

// The packed file is the arrays plus 33 (one half) or 49 (two) header
// bytes and the padding that 8-aligns each section — nothing else.
func TestContainerSizeAccounting(t *testing.T) {
	pad8 := func(x int) int { return (x + 7) &^ 7 }
	for _, n := range []int{50, 51} {
		for _, directed := range []bool{false, true} {
			c := shape{EncPacked, directed, false}.container(t, n, 3)
			want := pad8(headerLen+8*(1+2*len(c.Halves))) + 4*n
			for _, h := range c.Halves {
				want = pad8(want) + 4*(n+1)
				want = pad8(want) + 8*int(h.(*FlatIndex).NumLabels())
			}
			if got := len(containerBytes(t, c)); got != want {
				t.Errorf("n=%d directed=%v: %d bytes, want %d", n, directed, got, want)
			}
		}
	}
}

// A big-endian host encodes what a little-endian one aliases; the two
// must be the same bytes (this host can only check its own side against
// the encoder, which is all the other side runs).
func TestEncodeWordsMatchesNativeImage(t *testing.T) {
	if !littleEndian {
		t.Skip("big-endian host: wordBytes is encodeWords")
	}
	w32 := []uint32{0, 1, 0x01020304, 0xffffffff}
	w64 := []uint64{0, 1, 0x0102030405060708, 1<<64 - 1}
	if !bytes.Equal(encodeWords(w32), wordBytes(w32)) || !bytes.Equal(encodeWords(w64), wordBytes(w64)) {
		t.Fatal("encodeWords differs from the little-endian memory image")
	}
	if !reflect.DeepEqual(words[uint32](encodeWords(w32), false), w32) || !reflect.DeepEqual(words[uint64](encodeWords(w64), false), w64) {
		t.Fatal("words does not invert encodeWords")
	}
}

// A missing or empty file is an error from MapContainer, never a panic;
// the empty one is "not mappable" so OpenFlat-style callers fall through
// to the reader, which names the real problem.
func TestMapContainerBadFiles(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(empty)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := MapContainer(f); err == nil {
		t.Fatal("empty file mapped")
	}
	if _, err := ReadContainer(f); err == nil || errors.Is(err, ErrNotMappable) {
		t.Fatalf("empty file read: %v", err)
	}
	closed, _ := os.Open(empty)
	closed.Close()
	if _, err := MapContainer(closed); err == nil {
		t.Fatal("closed descriptor mapped")
	}
}

// The per-payload names of the deleted writer/reader/mapper trios. They
// add no row — each runs rows the three table tests above already run, for
// the shape and opener its old body used — and exist only because the
// repository's test floor still lists them (38 ids with their subtests and
// fuzz seeds); drop them when a PR has the removal budget.
func TestIndexSerializationRoundTrip(t *testing.T) {
	checkRoundTrip(t, shape{EncPacked, false, true})
	checkRoundTrip(t, shape{EncPacked, true, true})
}
func TestFlatRoundTrip(t *testing.T)         { checkRoundTrip(t, shape{EncPacked, false, false}) }
func TestDirectedFlatRoundTrip(t *testing.T) { checkRoundTrip(t, shape{EncPacked, true, false}) }
func TestCompressedFlatRoundTrip(t *testing.T) {
	t.Run("single", func(t *testing.T) { checkRoundTrip(t, shape{EncCompressed, false, false}) })
	t.Run("directed", func(t *testing.T) { checkRoundTrip(t, shape{EncCompressed, true, false}) })
}
func TestMapFlatAt(t *testing.T)                 { checkRoundTrip(t, shape{EncPacked, false, false}) }
func TestMapDirectedFlatFile(t *testing.T)       { checkRoundTrip(t, shape{EncPacked, true, false}) }
func TestMapFlatParityWithReadFlat(t *testing.T) { checkMisaligned(t, shape{EncPacked, false, false}) }
func TestMapDirectedFlatParityWithRead(t *testing.T) {
	checkMisaligned(t, shape{EncPacked, true, false})
}
func TestMapFlatRejectsMisaligned(t *testing.T) { checkMisaligned(t, shape{EncPacked, false, false}) }
func TestMapDirectedFlatRejectsMisaligned(t *testing.T) {
	checkMisaligned(t, shape{EncPacked, true, false})
}
func TestReadIndexErrors(t *testing.T)   { checkHostile(t, shape{EncPacked, false, true}, openRead) }
func TestPermSerialization(t *testing.T) { checkHostile(t, shape{EncPacked, true, true}, openCopied) }
func TestReadFlatRejectsGarbage(t *testing.T) {
	checkHostile(t, shape{EncPacked, false, false}, openRead)
}
func TestMapFlatRejectsGarbage(t *testing.T) {
	checkHostile(t, shape{EncPacked, false, false}, openAliased)
}
func TestDirectedFlatRejectsGarbage(t *testing.T) {
	checkHostile(t, shape{EncPacked, true, false}, openRead)
	checkHostile(t, shape{EncPacked, true, false}, openAliased)
}

// fuzzContainer is the fuzz targets' one body. Invariants: no panic; an
// accepted input re-saves to the identical bytes, opens identically in
// place, holds halves over the permutation's vertex space that re-validate
// (sorted in-range hubs, well-formed streams), and — when compressed —
// joins exactly like its fixed-width expansion.
func fuzzContainer(t *testing.T, data []byte) {
	c, err := OpenContainer(data, false)
	if err != nil {
		return
	}
	var out bytes.Buffer
	if _, err := c.WriteTo(&out); err != nil {
		t.Fatalf("accepted container does not re-save: %v", err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("accepted container does not re-save to identical bytes")
	}
	if littleEndian {
		if _, err := OpenContainer(aligned(data, 0), true); err != nil {
			t.Fatalf("accepted by the copying open, refused in place: %v", err)
		}
	}
	for i, h := range c.Halves {
		if h.NumVertices() != len(c.Perm) {
			t.Fatalf("accepted half %d covers %d vertices, the permutation %d", i, h.NumVertices(), len(c.Perm))
		}
		// An accepted half must still pass the checks the kernels rely on
		// when asked again — nothing between the reader and validate() may
		// have been skipped on the way in.
		switch h := h.(type) {
		case *FlatIndex:
			if err := h.validate(); err != nil {
				t.Fatalf("accepted packed half %d fails validation: %v", i, err)
			}
		case *CompressedIndex:
			if err := h.validate(); err != nil {
				t.Fatalf("accepted compressed half %d fails validation: %v", i, err)
			}
		}
		ci, ok := h.(*CompressedIndex)
		if !ok {
			continue
		}
		flat := ci.Decompress()
		if err := flat.validate(); err != nil {
			t.Fatalf("accepted half decompresses to an invalid flat index: %v", err)
		}
		n := ci.NumVertices()
		for _, u := range []int{0, n / 2, n - 1} {
			if u < 0 {
				continue
			}
			gd, gh, gok := JoinCompressed(ci.Run(u), ci.Run(n-1-u))
			wd, wh, wok := JoinPacked(flat.PackedRun(u), flat.PackedRun(n-1-u))
			if gok != wok || gh != wh || gd != wd {
				t.Fatalf("pair (%d,%d): JoinCompressed = (%v,%d,%v), JoinPacked = (%v,%d,%v)", u, n-1-u, gd, gh, gok, wd, wh, wok)
			}
		}
	}
}

// fuzzSeeds adds every hostile row of the shape, valid file first. The
// 1 MiB blob is left to FuzzOpenContainer, once: a corpus of megabyte
// seeds spends the fuzzing budget minimizing them.
func fuzzSeeds(f *testing.F, s shape) {
	f.Add(containerBytes(f, s.container(f, 12, 55)))
	for name, row := range hostileRows(f, s) {
		if name != blobRow {
			f.Add(row)
		}
	}
}

// FuzzOpenContainer drives the one reader every index file, shard slice
// and /reload goes through with arbitrary bytes, seeded with every
// shape, every retired magic, version and encoding, and the hostile table.
func FuzzOpenContainer(f *testing.F) {
	for _, s := range shapes {
		fuzzSeeds(f, s)
	}
	f.Add(hostileRows(f, shapes[0])[blobRow])
	f.Fuzz(fuzzContainer)
}

// The two payload fuzzers that predate the container, as seed corpora of
// their shape over the same body.
func FuzzReadDirectedFlat(f *testing.F) {
	fuzzSeeds(f, shape{EncPacked, true, false})
	f.Fuzz(fuzzContainer)
}

func FuzzReadCompressedFlat(f *testing.F) {
	fuzzSeeds(f, shape{EncCompressed, false, false})
	fuzzSeeds(f, shape{EncCompressed, true, false})
	f.Fuzz(fuzzContainer)
}
