package chl

import (
	"encoding/base64"
	"fmt"

	"repro/internal/label"
)

// The shard protocol's wire format: every body a shard Server writes for
// the Router and the Router decodes is one of the types below, so the two
// tiers cannot drift apart. ARCHITECTURE.md ("Shard protocol") tabulates
// endpoint → request → response; Server.stamp fills the stamp,
// Router.checkStamp (inside callShard) verifies it.

// shardStamp is the snapshot stamp every shard-facing response carries:
// which snapshot answered (Generation within the process, Epoch across
// restarts, Ident = Snapshot.Ident, the durable content hash) and over
// what cluster shape (N vertices, Directed, and UnitExp: the label rows
// count units of 2^-UnitExp). A plain server stamps
// nothing — every key is absent from its bodies except generation on
// /healthz and /reload, which is public there — so the router can tell a
// shard backend from a misconfigured plain one by the stamp alone.
type shardStamp struct {
	Generation uint64 `json:"generation,omitempty"`
	Epoch      uint64 `json:"epoch,omitempty"`
	Ident      uint64 `json:"ident,omitempty"`
	N          int    `json:"n,omitempty"`
	Directed   bool   `json:"directed,omitempty"`
	UnitExp    int    `json:"unit_exp,omitempty"`
}

// stampOf is promoted into every response type below; it is how
// callShard reaches the stamp of whatever it decoded.
func (s shardStamp) stampOf() shardStamp { return s }

// stamped is any shard-protocol response.
type stamped interface{ stampOf() shardStamp }

// pairResponse is the part of /dist and /paths every answer carries; an
// unreachable pair is answered with it alone.
type pairResponse struct {
	U         int  `json:"u"`
	V         int  `json:"v"`
	Reachable bool `json:"reachable"`
	shardStamp
}

// distResponse is GET /dist for a reachable pair (and what the router
// decodes either way: dist and hub stay zero when unreachable).
type distResponse struct {
	pairResponse
	Dist float64 `json:"dist"`
	Hub  int     `json:"hub"`
}

// pathResponse is GET /paths for a reachable pair.
type pathResponse struct {
	pairResponse
	Dist float64 `json:"dist"`
	Path []int   `json:"path"`
}

// batchResponse is POST /batch; -1 marks an unreachable pair (JSON has
// no +Inf), here and in every distance array below.
type batchResponse struct {
	Dists []float64 `json:"dists"`
	shardStamp
}

// healthResponse is GET /healthz.
type healthResponse struct {
	OK bool `json:"ok"`
	shardStamp
}

// reloadResponse is POST /reload: the snapshot the request installed.
type reloadResponse struct {
	Path       string `json:"path"`
	Mapped     bool   `json:"mapped"`
	Compressed bool   `json:"compressed"`
	Vertices   int    `json:"vertices"`
	Labels     int64  `json:"labels"`
	shardStamp
}

// shardQueryRequest is the POST /shardquery body: label-row fetches for
// the router's cross-shard hub joins. Vertices asks for forward rows,
// Backward for backward rows (identical to forward on undirected shards —
// the halves coincide); a directed cross-shard query u→v fetches
// forward(u) from u's shard and backward(v) from v's. HubIDs names
// forward rows, each also in Vertices, whose hubs should come back as
// original vertex ids too: the witness of a join over u's row is then read
// off the same snapshot that served the row. Any list may be empty.
type shardQueryRequest struct {
	Vertices []int `json:"vertices,omitempty"`
	Backward []int `json:"backward,omitempty"`
	HubIDs   []int `json:"hub_ids,omitempty"`
}

// shardQueryResponse carries packed label runs keyed by vertex id. Each
// row is the vertex's entries array slice — little-endian uint64 words,
// hub (rank space) in the high 32 bits, the distance in units of the
// stamp's 2^-UnitExp in the low 32 — base64-encoded so the bytes cross the wire exactly as they sit in
// the shard's (usually memory-mapped) index. Rows answers Vertices
// (forward runs), BackRows answers Backward, and HubIDs answers the
// request's HubIDs: per named row, the original id of each entry's hub,
// aligned with the row's entries.
type shardQueryResponse struct {
	shardStamp
	Rows     map[string]string `json:"rows,omitempty"`
	BackRows map[string]string `json:"back_rows,omitempty"`
	HubIDs   map[string][]int  `json:"hub_ids,omitempty"`
}

// shardScanRequest is the router-facing /shardscan body: one source
// label run shipped to the shard, scanned against the shard's owned
// vertices — its slice of the inverted index when K > 0 (top-k
// candidates), its targets' backward runs when Targets is set (one
// matrix-row fragment). Exclude names a vertex the scan must omit (the
// source itself); it defaults to -1 (omit nothing).
type shardScanRequest struct {
	Run     string `json:"run"`
	K       int    `json:"k,omitempty"`
	Exclude int    `json:"exclude"`
	Targets []int  `json:"targets,omitempty"`
}

// shardScanResponse carries the scan results. Neighbor hubs are already
// resolved to original ids (the permutation is global and identical in
// every shard file).
type shardScanResponse struct {
	shardStamp
	Neighbors []Neighbor `json:"neighbors,omitempty"`
	Dists     []float64  `json:"dists,omitempty"`
}

// encodePackedRun serializes a packed label run as base64 of its
// little-endian bytes (label.PackedRunBytes).
func encodePackedRun(run []uint64) string {
	return base64.StdEncoding.EncodeToString(label.PackedRunBytes(run))
}

// decodePackedRun reverses encodePackedRun. The structural validation —
// whole entries, strictly ascending hubs, every hub < n — lives in
// label.ParsePackedRun (and is fuzzed there); both tiers run it on every
// row received off the wire before it reaches the join kernels, whose
// scratch indexing trusts hub ids.
func decodePackedRun(enc string, n int) ([]uint64, error) {
	b, err := base64.StdEncoding.DecodeString(enc)
	if err != nil {
		return nil, fmt.Errorf("chl: undecodable label row: %w", err)
	}
	return label.ParsePackedRun(b, n)
}
