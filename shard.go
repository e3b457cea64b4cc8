package chl

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/shard"
)

// Sharded serving: a flat index too large (or too hot) for one process is
// sliced into per-shard CHFX files, each holding only the label runs of
// the vertices a shard owns under a consistent-hash ring
// (internal/shard). Every slice is a structurally complete flat index
// over the full vertex-id space — empty runs for foreign vertices, the
// full rank permutation, the same binary format — so a shard server is
// the ordinary Server (mmap loading, snapshot hot swap, answer cache)
// pointed at its slice, plus an ownership check and the /shardquery
// row-fetch endpoint the Router joins across. See ARCHITECTURE.md
// ("Sharded serving") for the full topology and protocol.

// Shard returns a copy of fx that keeps only the label runs of vertices
// owned by shard id under partition p. The slice spans the full vertex-id
// space and carries the full rank permutation, so every saver, loader and
// serving component treats it as an ordinary flat index.
func (fx *FlatIndex) Shard(p *shard.Partition, id int) (*FlatIndex, error) {
	if id < 0 || id >= p.Shards() {
		return nil, fmt.Errorf("chl: shard id %d out of range [0,%d)", id, p.Shards())
	}
	keep := func(v int) bool { return p.Owner(v) == id }
	return fx.slice(keep), nil
}

// slice carves out a copy of fx keeping only the label runs keep selects,
// in fx's own format (label.Store.Slice — compressed blocks are copied
// without re-encoding), so shard files inherit the format of the index
// they were cut from. A directed slice keeps both label halves of its
// vertices: the router joins forward(u) from u's shard with backward(v)
// from v's.
func (fx *FlatIndex) slice(keep func(v int) bool) *FlatIndex {
	out := newFlatIndex(fx.fwd.Slice(keep), nil, append([]int(nil), fx.perm...))
	if fx.Directed() {
		out.bwd = fx.bwd.Slice(keep)
	}
	return out
}

// SaveShards slices fx into a cluster of shards per-shard flat index
// files under dir (shard-000.flat, shard-001.flat, ...) and writes the
// cluster manifest (cluster.json) describing the consistent-hash ring
// next to them. replicas and seed parameterize the ring (see
// shard.NewPartition); 64 replicas is a good default. The returned
// manifest is what shard servers and the router load to agree on
// ownership.
func (fx *FlatIndex) SaveShards(dir string, shards, replicas int, seed uint64) (*shard.Manifest, error) {
	p, err := shard.NewPartition(shards, replicas, seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// One ring lookup per vertex, shared across all slices — Shard's
	// keep-function form would re-hash every vertex twice per shard.
	owners := make([]int32, fx.NumVertices())
	counts := make([]int, shards)
	for v := range owners {
		owners[v] = int32(p.Owner(v))
		counts[owners[v]]++
	}
	files := make([]string, shards)
	for id := 0; id < shards; id++ {
		keep := func(v int) bool { return owners[v] == int32(id) }
		slice := fx.slice(keep)
		files[id] = fmt.Sprintf("shard-%03d.flat", id)
		if err := slice.SaveFile(filepath.Join(dir, files[id])); err != nil {
			return nil, fmt.Errorf("chl: writing shard %d: %w", id, err)
		}
	}
	m, err := shard.NewManifest(fx.NumVertices(), shards, replicas, seed, files)
	if err != nil {
		return nil, err
	}
	m.Directed = fx.Directed()
	m.VertexCounts = counts
	if err := shard.WriteManifest(filepath.Join(dir, shard.ManifestName), m); err != nil {
		return nil, err
	}
	return m, nil
}

// ShardFilePath resolves the path of shard id's index file relative to
// the manifest's location, the layout SaveShards writes.
func ShardFilePath(manifestPath string, m *shard.Manifest, id int) (string, error) {
	if id < 0 || id >= len(m.Files) {
		return "", fmt.Errorf("chl: shard id %d out of range [0,%d)", id, len(m.Files))
	}
	f := m.Files[id]
	if filepath.IsAbs(f) {
		return f, nil
	}
	return filepath.Join(filepath.Dir(manifestPath), f), nil
}
