package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestPartitionDeterministicAndTotal(t *testing.T) {
	p1, err := NewPartition(3, 64, 7)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := NewPartition(3, 64, 7)
	for v := 0; v < 5000; v++ {
		o := p1.Owner(v)
		if o < 0 || o >= 3 {
			t.Fatalf("Owner(%d) = %d out of range", v, o)
		}
		if o != p2.Owner(v) {
			t.Fatalf("partition not deterministic at vertex %d", v)
		}
	}
}

func TestPartitionBalance(t *testing.T) {
	const n, k = 20000, 4
	p, err := NewPartition(k, 96, 1)
	if err != nil {
		t.Fatal(err)
	}
	counts := p.Counts(n)
	total := 0
	for s, c := range counts {
		total += c
		// Consistent hashing with ~100 virtual points lands within a
		// loose band of the even split; a shard far outside it means the
		// ring is broken, not merely unlucky.
		if c < n/k/3 || c > n*3/k {
			t.Fatalf("shard %d owns %d of %d vertices (counts %v)", s, c, n, counts)
		}
	}
	if total != n {
		t.Fatalf("counts sum to %d, want %d", total, n)
	}
}

// Regression: ring-point keys must be domain-separated from vertex keys.
// Without the tag, vertex v < replicas hashed identically to shard 0's
// point r=v and the whole low id range collapsed onto shard 0.
func TestPartitionLowIdsNotCollapsed(t *testing.T) {
	for _, k := range []int{2, 3, 5} {
		p, err := NewPartition(k, 64, 1)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int]bool{}
		for v := 0; v < 64; v++ {
			seen[p.Owner(v)] = true
		}
		if len(seen) < 2 {
			t.Fatalf("k=%d: vertices [0,64) all owned by one shard — point/vertex hash collision", k)
		}
	}
}

// Consistent hashing's defining property: growing the cluster reassigns
// roughly 1/(k+1) of the vertices, not a wholesale reshuffle.
func TestPartitionStabilityUnderResize(t *testing.T) {
	const n = 10000
	p3, _ := NewPartition(3, 64, 1)
	p4, _ := NewPartition(4, 64, 1)
	moved := 0
	for v := 0; v < n; v++ {
		a, b := p3.Owner(v), p4.Owner(v)
		if a != b {
			if b != 3 {
				// A vertex that moved between two pre-existing shards is a
				// consistency violation, tolerated only in tiny numbers
				// (point collisions).
				moved++
			}
			continue
		}
	}
	if moved > n/100 {
		t.Fatalf("%d vertices moved between pre-existing shards on resize", moved)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m, err := NewManifest(1000, 3, 64, 42, []string{"shard-000.flat", "shard-001.flat", "shard-002.flat"})
	if err != nil {
		t.Fatal(err)
	}
	m.UnitExp = 2
	path := filepath.Join(t.TempDir(), ManifestName)
	if err := WriteManifest(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Vertices != 1000 || got.Shards != 3 || got.Replicas != 64 || got.Seed != 42 || len(got.Files) != 3 || got.UnitExp != 2 {
		t.Fatalf("round trip mangled manifest: %+v", got)
	}
	p, err := got.Partition()
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := m.Partition()
	for v := 0; v < 1000; v++ {
		if p.Owner(v) != orig.Owner(v) {
			t.Fatalf("reconstructed partition differs at vertex %d", v)
		}
	}
}

// There is one manifest schema: a v1 or v2 document (no writer in the
// tree emits either) is refused, by bytes and by file, with the command
// that regenerates the cluster.
func TestManifestOldVersionsRefused(t *testing.T) {
	for _, ver := range []int{1, 2, manifestVersion + 1} {
		old := []byte(fmt.Sprintf(`{"version": %d, "vertices": 500, "shards": 2, "replicas": 64, "seed": 7,
			"files": ["shard-000.flat", "shard-001.flat"]}`, ver))
		_, err := ParseManifest(old)
		if err == nil || !strings.Contains(err.Error(), "-split") {
			t.Fatalf("version-%d manifest: err = %v, want a refusal naming -split", ver, err)
		}
		path := filepath.Join(t.TempDir(), ManifestName)
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadManifest(path); err == nil {
			t.Fatalf("version-%d manifest file accepted", ver)
		}
	}
}

func TestManifestV2ReplicaAddrs(t *testing.T) {
	m, err := NewManifest(100, 2, 64, 1, []string{"a.flat", "b.flat"})
	if err != nil {
		t.Fatal(err)
	}
	m.ReplicaAddrs = [][]string{
		{"http://a1:8081", "http://a2:8081"},
		{"http://b1:8082", "http://b2:8082"},
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), ManifestName)
	if err := WriteManifest(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.ReplicaAddrs) != 2 || got.ReplicaAddrs[1][1] != "http://b2:8082" {
		t.Fatalf("replica addresses mangled: %+v", got.ReplicaAddrs)
	}

	m.ReplicaAddrs = [][]string{{"http://a1:8081"}}
	if err := m.Validate(); err == nil {
		t.Error("replica addresses for 1 of 2 shards accepted")
	}
	m.ReplicaAddrs = [][]string{{"http://a1:8081"}, {}}
	if err := m.Validate(); err == nil {
		t.Error("empty replica group accepted")
	}
	m.ReplicaAddrs = [][]string{{"http://a1:8081"}, {""}}
	if err := m.Validate(); err == nil {
		t.Error("empty replica address accepted")
	}
}

// The validation bounds exist so a hostile manifest cannot demand a
// gigantic ring allocation before anything touches it.
func TestManifestRejectsImplausibleRing(t *testing.T) {
	for _, body := range []string{
		`{"version":3,"vertices":1,"shards":1000000,"files":[],"replicas":64,"seed":1}`,
		`{"version":3,"vertices":1,"shards":2,"files":["a","b"],"replicas":1073741824,"seed":1}`,
		// shards*replicas wraps int64 to a small value; the bound must
		// divide, not multiply, or this passes and allocates the ring.
		`{"version":3,"vertices":1,"shards":4,"files":["a","b","c","d"],"replicas":4611686018427387904,"seed":1}`,
	} {
		if _, err := ParseManifest([]byte(body)); err == nil {
			t.Errorf("implausible manifest accepted: %s", body)
		}
	}
}

func TestManifestRejectsBadInputs(t *testing.T) {
	if _, err := NewManifest(10, 2, 64, 1, []string{"only-one.flat"}); err == nil {
		t.Error("file/shard count mismatch accepted")
	}
	if _, err := NewPartition(0, 64, 1); err == nil {
		t.Error("zero shards accepted")
	}
	if _, err := NewPartition(2, 0, 1); err == nil {
		t.Error("zero replicas accepted")
	}
	for _, k := range []int{-1, 64} {
		body := fmt.Sprintf(`{"version":3,"vertices":1,"shards":1,"files":["a"],"replicas":64,"seed":1,"unit_exp":%d}`, k)
		if _, err := ParseManifest([]byte(body)); err == nil {
			t.Errorf("unit 2^-%d accepted", k)
		}
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"version":99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(bad); err == nil {
		t.Error("bad manifest version accepted")
	}
}
