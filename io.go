package chl

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand/v2"
	"os"

	"repro/internal/label"
)

// Every persisted labeling is a frozen FlatIndex, fixed-width or
// compressed, directed or not, in one file format: the sectioned CHFX
// container of internal/label (see ARCHITECTURE.md, "On-disk format").
// A builder's Index is persisted by freezing it (Index.Freeze, then
// FlatIndex.SaveFile). The functions here choose what goes into a
// container and what comes out of one; the bytes are label.Container's.

// writeFileAtomic writes what save produces to a temporary file in
// path's directory and renames it over path. A process that has the old
// file open or mapped keeps its inode — truncating in place would fault
// it — and no reader ever observes a half-written file. The file gets the
// mode os.Create would give it (0666 less the umask). Nothing is fsynced:
// the rename orders the swap, it does not make it durable.
func writeFileAtomic(path string, save func(io.Writer) error) error {
	tmp := fmt.Sprintf("%s.tmp%016x", path, rand.Uint64())
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
	if err != nil {
		return err
	}
	err = save(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// Save serializes the flat index (label store + ranking) to w in the
// encoding it is held in.
func (fx *FlatIndex) Save(w io.Writer) error {
	c := &label.Container{Perm: fx.perm, Halves: []label.Store{fx.fwd}}
	if fx.Directed() {
		c.Halves = append(c.Halves, fx.bwd)
	}
	_, err := c.WriteTo(w)
	return err
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

// SaveFile writes the flat index to a file, atomically: saving over the
// path of an index some server has mapped leaves that server on its old
// inode until it reloads.
func (fx *FlatIndex) SaveFile(path string) error { return writeFileAtomic(path, fx.Save) }

// flatFromContainer assembles the serving index over an opened container.
func flatFromContainer(c *label.Container) *FlatIndex {
	var bwd label.Store
	if len(c.Halves) == 2 {
		bwd = c.Halves[1]
	}
	return newFlatIndex(c.Halves[0], bwd, c.Perm)
}

// LoadFlat deserializes a flat index written by FlatIndex.Save into the
// heap.
func LoadFlat(r io.Reader) (*FlatIndex, error) {
	c, err := label.ReadContainer(r)
	if err != nil {
		return nil, err
	}
	return flatFromContainer(c), nil
}

// LoadFlatFile reads a flat index from a file into the heap. For the
// zero-copy serving path use OpenFlat, which prefers LoadFlatMapped and
// falls back to this loader.
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
// Only the small rank permutation is materialized on the heap. The
// mapping is taken from the same open descriptor the header is read
// from, so an atomic-rename deploy racing this load cannot pair one
// inode's permutation with another's label arrays.
//
// The returned index holds the mapping until Close is called. Replacing
// the file is safe — SaveFile renames a new inode into place, and the
// mapping keeps the old one until Server.Reload swaps it out — truncating
// or rewriting it in place is not. Errors wrapping label.ErrNotMappable
// mean the file is valid but cannot be mapped on this host (no mmap
// support, or big endian); OpenFlat handles the fallback.
func LoadFlatMapped(path string) (*FlatIndex, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c, err := label.MapContainer(f)
	if err != nil {
		return nil, err
	}
	fx := flatFromContainer(c)
	fx.file = c
	return fx, nil
}

// OpenFlat opens a flat index file for serving: memory-mapped when the
// host allows it, otherwise copied to the heap. This is the loader the
// serving tier (Server, cmd/chlquery -serve) uses; check Mapped to see
// which path was taken, and Close the index when done.
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
