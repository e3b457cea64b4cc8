package label

import (
	"encoding/binary"
	"fmt"
)

// Wire codec for one packed label run — the payload of the sharded
// serving tier's /shardquery protocol. A run crosses the wire as the
// little-endian bytes of its uint64 entries, exactly as they sit in the
// owning shard's (usually memory-mapped) entries array; the router
// re-validates the structure before the bytes reach the join kernels,
// whose hub-table indexing trusts hub ids.

// PackedRunBytes serializes a packed label run (FlatIndex.PackedRun) as
// its little-endian bytes.
func PackedRunBytes(run []uint64) []byte {
	b := make([]byte, 8*len(run))
	for i, e := range run {
		binary.LittleEndian.PutUint64(b[i*8:], e)
	}
	return b
}

// ParsePackedRun reverses PackedRunBytes, validating that the bytes are a
// structurally sound label run for an n-vertex index: a whole number of
// 8-byte entries, strictly ascending packed words (hubs live in the high
// 32 bits, so word order is exactly hub order), and every hub < n.
// Nothing a hostile or corrupted peer sends past this check can make a
// join kernel index out of range.
func ParsePackedRun(b []byte, n int) ([]uint64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("label: packed run of %d bytes is not a whole number of entries", len(b))
	}
	run := make([]uint64, len(b)/8)
	for i := range run {
		run[i] = binary.LittleEndian.Uint64(b[i*8:])
		if hub := run[i] >> 32; hub >= uint64(n) {
			return nil, fmt.Errorf("label: packed run entry %d has out-of-range hub %d (n=%d)", i, hub, n)
		}
		if i > 0 && run[i-1]>>32 >= run[i]>>32 {
			return nil, fmt.Errorf("label: packed run hubs not strictly sorted at entry %d", i)
		}
	}
	return run, nil
}
