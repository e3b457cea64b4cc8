// Package shard partitions the vertex set of a served hub-labeling index
// across N shard servers and describes the resulting cluster.
//
// The partitioner is a consistent-hash ring over vertex ids: each shard
// owns Replicas virtual points on a 64-bit ring, a vertex hashes to a ring
// position, and the next point clockwise names its owner. Ownership is
// therefore a union of hash ranges per shard — balanced to within a few
// percent for realistic replica counts, fully determined by (shards,
// replicas, seed), and stable in the consistent-hashing sense: resizing
// the cluster from k to k+1 shards moves only ~1/(k+1) of the vertices.
//
// This is the serving-tier descendant of the paper's QDOL query mode
// (internal/query): QDOL also routes each query point-to-point to the one
// node owning its vertices, but buys locality by replicating every
// partition pair — Θ(1/√q) of the labeling per node. A shard here stores
// only its own vertices' labels, Θ(1/N) per node, and the router completes
// cross-shard queries with one hub join over two fetched label runs
// instead of pair replication.
//
// A cluster is described on disk by a Manifest (cluster.json next to the
// shard files), written by the shard-index writer (chl.FlatIndex.
// SaveShards) and read by both the shard servers and the router, so every
// process derives the identical ring.
package shard

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/label"
)

// Partition maps vertex ids to shard ids via a consistent-hash ring.
// Partitions are immutable and safe for concurrent use.
type Partition struct {
	shards int
	seed   uint64
	points []ringPoint // sorted by position
}

type ringPoint struct {
	pos   uint64
	shard int32
}

// ringTag marks ring-point hash inputs; vertex ids are uint32s, so any
// input with this bit set is provably never a vertex key.
const ringTag = uint64(1) << 63

// splitmix64 is the mixing function behind the ring: tiny, dependency-free
// and statistically strong (Steele et al., "Fast splittable pseudorandom
// number generators"). It must never change — manifests persist only
// (shards, replicas, seed) and every process recomputes the same ring.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewPartition builds the ring for a cluster of shards, each holding
// replicas virtual points. Higher replica counts smooth the load split
// (64–128 keeps the imbalance within a few percent); seed varies the ring
// layout without changing its properties.
func NewPartition(shards, replicas int, seed uint64) (*Partition, error) {
	if shards < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", shards)
	}
	if replicas < 1 {
		return nil, fmt.Errorf("shard: need at least 1 replica per shard, got %d", replicas)
	}
	p := &Partition{shards: shards, seed: seed, points: make([]ringPoint, 0, shards*replicas)}
	for s := 0; s < shards; s++ {
		for r := 0; r < replicas; r++ {
			// ringTag domain-separates point keys from vertex keys:
			// without it, shard 0's point r and vertex id r hash
			// identically (s<<32|r == r for s=0) and every vertex below
			// the replica count lands exactly on shard 0's points.
			// splitmix64 is a bijection, so tagged inputs can never
			// collide with any vertex hash.
			h := splitmix64(seed ^ splitmix64(ringTag|uint64(s)<<32|uint64(r)))
			p.points = append(p.points, ringPoint{pos: h, shard: int32(s)})
		}
	}
	sort.Slice(p.points, func(i, j int) bool { return p.points[i].pos < p.points[j].pos })
	return p, nil
}

// Shards returns the cluster size the ring was built for.
func (p *Partition) Shards() int { return p.shards }

// Owner returns the shard owning vertex v: the first ring point at or
// after v's hash, wrapping around the ring.
func (p *Partition) Owner(v int) int {
	h := splitmix64(p.seed ^ splitmix64(uint64(v)))
	i := sort.Search(len(p.points), func(i int) bool { return p.points[i].pos >= h })
	if i == len(p.points) {
		i = 0
	}
	return int(p.points[i].shard)
}

// Counts tallies how many of the vertices [0,n) each shard owns, the
// ring's balance. (The splitter prints Manifest.VertexCounts, which
// SaveShards counts as it assigns vertices.)
func (p *Partition) Counts(n int) []int {
	c := make([]int, p.shards)
	for v := 0; v < n; v++ {
		c[p.Owner(v)]++
	}
	return c
}

// ManifestName is the file name SaveShards writes the Manifest under,
// next to the shard files.
const ManifestName = "cluster.json"

// Manifest describes a sharded index on disk: the ring parameters (from
// which every process recomputes the identical Partition) and the
// per-shard flat index files, stored relative to the manifest's own
// directory. It is plain JSON so operators can read and audit it.
//
// There is one schema, manifestVersion; a document of any other version
// is refused with the command that regenerates it (manifests, like the
// shard files beside them, are derived from the index). ReplicaAddrs,
// Directed and UnitExp are optional: without them the manifest describes
// an unreplicated, undirected cluster counting whole units.
type Manifest struct {
	Version  int      `json:"version"`
	Vertices int      `json:"vertices"`
	Shards   int      `json:"shards"`
	Replicas int      `json:"replicas"`
	Seed     uint64   `json:"seed"`
	Files    []string `json:"files"`
	// Directed marks a cluster over a directed index: every shard file
	// carries both label halves, and serving components must treat (u,v)
	// and (v,u) as distinct queries.
	Directed bool `json:"directed,omitempty"`
	// UnitExp is k of the shard files' unit 2^-k: their label rows count
	// distances in it, and the router converts its own joins by it. 0 —
	// the unit 1 of every integer-weighted graph — is omitted.
	UnitExp int `json:"unit_exp,omitempty"`
	// VertexCounts records how many vertices each shard owns — purely
	// informational (the ring is authoritative), for operators and the
	// splitter's balance report.
	VertexCounts []int `json:"vertex_counts,omitempty"`
	// ReplicaAddrs optionally records the serving topology: one list
	// of replica base URLs per shard, in shard-id order. Every replica of
	// a shard serves the same slice file; a router load-balances across
	// them and fails over when one dies.
	ReplicaAddrs [][]string `json:"replica_addrs,omitempty"`
}

// manifestVersion is the one manifest schema version written and read.
const manifestVersion = 3

// Validation bounds: a manifest is a small hand-auditable file, and the
// ring it describes is materialized in memory (shards × replicas points),
// so implausible counts are rejected up front — a corrupt or hostile
// manifest must not demand gigabytes before the first query.
const (
	maxShards     = 1 << 16
	maxRingPoints = 1 << 20
)

// Partition reconstructs the ring the manifest describes.
func (m *Manifest) Partition() (*Partition, error) {
	return NewPartition(m.Shards, m.Replicas, m.Seed)
}

// Validate checks the manifest's internal consistency.
func (m *Manifest) Validate() error {
	if m.Version != manifestVersion {
		return fmt.Errorf("shard: unsupported manifest version %d (want %d): regenerate the cluster with `chlquery -load INDEX -split N -shards-dir DIR`", m.Version, manifestVersion)
	}
	if m.Vertices < 0 {
		return fmt.Errorf("shard: manifest has negative vertex count %d", m.Vertices)
	}
	if m.UnitExp < 0 || m.UnitExp > label.MaxUnitExp {
		return fmt.Errorf("shard: manifest has unit 2^-%d (k must be in [0,%d])", m.UnitExp, label.MaxUnitExp)
	}
	if m.Shards < 1 || m.Shards > maxShards {
		return fmt.Errorf("shard: manifest has %d shards (want 1..%d)", m.Shards, maxShards)
	}
	// Divide rather than multiply: m.Shards*m.Replicas can overflow int
	// and wrap below the bound, which is exactly the hostile input the
	// bound exists for. m.Shards >= 1 was established above.
	if m.Replicas < 1 || m.Replicas > maxRingPoints/m.Shards {
		return fmt.Errorf("shard: manifest has %d ring replicas per shard (want 1..%d/shards)", m.Replicas, maxRingPoints)
	}
	if len(m.Files) != m.Shards {
		return fmt.Errorf("shard: manifest lists %d files for %d shards", len(m.Files), m.Shards)
	}
	if m.VertexCounts != nil && len(m.VertexCounts) != m.Shards {
		return fmt.Errorf("shard: manifest lists %d vertex counts for %d shards", len(m.VertexCounts), m.Shards)
	}
	if m.ReplicaAddrs != nil {
		if len(m.ReplicaAddrs) != m.Shards {
			return fmt.Errorf("shard: manifest lists replica addresses for %d shards, want %d", len(m.ReplicaAddrs), m.Shards)
		}
		for i, reps := range m.ReplicaAddrs {
			if len(reps) < 1 {
				return fmt.Errorf("shard: manifest lists no replica addresses for shard %d", i)
			}
			for j, a := range reps {
				if a == "" {
					return fmt.Errorf("shard: manifest has an empty address for shard %d replica %d", i, j)
				}
			}
		}
	}
	return nil
}

// NewManifest returns a validated manifest for a cluster.
func NewManifest(vertices, shards, replicas int, seed uint64, files []string) (*Manifest, error) {
	m := &Manifest{
		Version:  manifestVersion,
		Vertices: vertices,
		Shards:   shards,
		Replicas: replicas,
		Seed:     seed,
		Files:    files,
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// WriteManifest writes m as indented JSON to path.
func WriteManifest(path string, m *Manifest) error {
	if err := m.Validate(); err != nil {
		return err
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ParseManifest parses and validates a manifest from its JSON bytes —
// the pure core of ReadManifest, shared with anything that carries a
// manifest over a wire instead of a file.
func ParseManifest(b []byte) (*Manifest, error) {
	m := &Manifest{}
	if err := json.Unmarshal(b, m); err != nil {
		return nil, fmt.Errorf("shard: parsing manifest: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// ReadManifest reads and validates a manifest written by WriteManifest.
func ReadManifest(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := ParseManifest(b)
	if err != nil {
		return nil, fmt.Errorf("shard: manifest %s: %w", path, err)
	}
	return m, nil
}
