package chl_test

// Tests for the one patch log both update tiers run (delta.Log): the same
// batches leave the same journal and patch state on a Server and a
// Router, a failure of the process applying a batch — not of the batch —
// answers 500 and publishes nothing, and a journal that cannot be
// replayed refuses the router outright.

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	chl "repro"
)

// TestOnePatchLogAcrossTiers: a journaled Server and a journaled Router
// take the same batches — one accepted, one refused, one cancelling an
// op of the first — and end with byte-identical journals and the same
// patch epoch and op count. A restart of each replays its journal to the
// patched graph's exact answers.
func TestOnePatchLogAcrossTiers(t *testing.T) {
	dir := t.TempDir()
	g := chl.GenerateRandom(180, 520, 9, 11)
	path := saveFrozen(t, g, dir, "base.flat")
	ops := parityPatchOps(g)
	del := ops[0]
	if del.Kind != chl.EdgeOpDel {
		t.Fatalf("fixture ops changed shape: %v", ops)
	}
	w, _ := g.HasEdge(del.U, del.V)
	restore := []chl.EdgeOp{{Kind: chl.EdgeOpAdd, U: del.U, V: del.V, W: w}}
	batches := []struct {
		ops  []chl.EdgeOp
		code int
	}{
		{ops, http.StatusOK},
		{[]chl.EdgeOp{del}, http.StatusBadRequest}, // the edge is already gone
		{restore, http.StatusOK},                   // cancels the first batch's del
	}
	patched, err := chl.ApplyPatch(g, append(append([]chl.EdgeOp{}, ops...), restore...))
	if err != nil {
		t.Fatal(err)
	}
	po := newParityOracle(patched)
	n := g.NumVertices()
	var pairs [][2]int
	for i, op := range ops {
		pairs = append(pairs, [2]int{op.U, op.V}, [2]int{op.U, (i * 41) % n})
	}
	for i := 0; i < 30; i++ {
		pairs = append(pairs, [2]int{(i * 41) % n, (i*89 + 7) % n})
	}

	serverJournal := filepath.Join(dir, "server.journal")
	s, err := chl.NewServer(path, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.EnableUpdates(g, serverJournal); err != nil {
		t.Fatal(err)
	}
	sts := httptest.NewServer(s.Handler())
	defer sts.Close()

	routerJournal := filepath.Join(dir, "router.journal")
	_, fx := buildFrozen(t, g)
	c := newTestCluster(t, fx, clusterSpec{shards: 3, cacheSize: 1 << 10, tweak: func(cfg *chl.RouterConfig) {
		cfg.BaseGraph = g
		cfg.UpdateJournal = routerJournal
	}})
	defer c.close()
	rts := httptest.NewServer(c.router.Handler())
	defer rts.Close()

	for i, b := range batches {
		for _, base := range []string{sts.URL, rts.URL} {
			if got := postRaw(t, base+"/update", string(chl.FormatPatchLog(b.ops))); got != b.code {
				t.Fatalf("batch %d to %s: status %d, want %d", i, base, got, b.code)
			}
		}
	}
	sj, err := os.ReadFile(serverJournal)
	if err != nil {
		t.Fatal(err)
	}
	rj, err := os.ReadFile(routerJournal)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sj, rj) {
		t.Fatalf("journals differ:\nserver %q\nrouter %q", sj, rj)
	}
	sp, rp := s.Stats().Patch, c.router.Stats().Patch
	if sp == nil || rp == nil || sp.Epoch != 2 || rp.Epoch != 2 || sp.Ops != len(ops)+1 || rp.Ops != len(ops)+1 {
		t.Fatalf("patch state: server %+v, router %+v; want epoch 2 and %d ops on both", sp, rp, len(ops)+1)
	}

	s2, err := chl.NewServer(path, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.EnableUpdates(g, serverJournal); err != nil {
		t.Fatal(err)
	}
	groups := make([][]string, len(c.backends))
	for sid, reps := range c.backends {
		for _, b := range reps {
			groups[sid] = append(groups[sid], b.URL)
		}
	}
	r2, err := chl.NewRouter(chl.RouterConfig{
		Manifest: c.manifest, ReplicaAddrs: groups, CacheSize: 1 << 10,
		BaseGraph: g, UpdateJournal: routerJournal,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		want := po.from(p[0])[p[1]]
		if got := s2.Query(p[0], p[1]); got != want {
			t.Fatalf("replayed server d(%d,%d) = %v, patched oracle says %v", p[0], p[1], got, want)
		}
		got, err := r2.Query(p[0], p[1])
		if err != nil {
			t.Fatalf("replayed router query (%d,%d): %v", p[0], p[1], err)
		}
		if got != want {
			t.Fatalf("replayed router d(%d,%d) = %v, patched oracle says %v", p[0], p[1], got, want)
		}
	}
	sp, rp = s2.Stats().Patch, r2.Stats().Patch
	if sp == nil || rp == nil || sp.Epoch != rp.Epoch || sp.Ops != len(ops)+1 || rp.Ops != len(ops)+1 {
		t.Fatalf("replayed patch state: server %+v, router %+v; want the same epoch and %d ops", sp, rp, len(ops)+1)
	}
}

// TestServerJournalFailureIs500: a journal append that fails is the
// server's fault, not the batch's — 500 — and the batch is not published.
func TestServerJournalFailureIs500(t *testing.T) {
	g := chl.GenerateRandom(120, 320, 9, 13)
	_, fx := buildFrozen(t, g)
	s := chl.NewServerFromFlat(fx, 0)
	defer s.Close()
	journal := filepath.Join(t.TempDir(), "updates.journal")
	if err := s.EnableUpdates(g, journal); err != nil {
		t.Fatal(err)
	}
	ops := parityPatchOps(g)
	if _, err := s.Update(ops[:1]); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(journal); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(journal, 0o755); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	before := s.Stats()
	if got := postRaw(t, ts.URL+"/update", string(chl.FormatPatchLog(ops[1:2]))); got != http.StatusInternalServerError {
		t.Fatalf("/update with an unwritable journal: status %d, want 500", got)
	}
	after := s.Stats()
	if after.Generation != before.Generation || after.Updates != before.Updates || after.Patch.Epoch != before.Patch.Epoch || after.Patch.Ops != before.Patch.Ops {
		t.Fatalf("a failed journal append published: before %+v / %+v, after %+v / %+v", before, before.Patch, after, after.Patch)
	}
}

// TestRouterRefusesUnreadableJournal: NewRouter replays the journal, so
// a router whose journal cannot be read is never built — the error names
// the journal — rather than failing its requests.
func TestRouterRefusesUnreadableJournal(t *testing.T) {
	g := chl.GenerateRandom(120, 320, 9, 13)
	_, fx := buildFrozen(t, g)
	m, err := fx.SaveShards(t.TempDir(), 2, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	journal := t.TempDir() // a directory
	// NewRouter contacts no shard, so the replicas need not exist.
	r, err := chl.NewRouter(chl.RouterConfig{
		Manifest: m, ReplicaAddrs: [][]string{{"http://127.0.0.1:1"}, {"http://127.0.0.1:1"}},
		BaseGraph: g, UpdateJournal: journal,
	})
	if r != nil || err == nil || !strings.Contains(err.Error(), journal) {
		t.Fatalf("NewRouter over a journal that is a directory: router built %v, error %v; want none and an error naming %s", r != nil, err, journal)
	}
}

// TestCompactSaveFailureIs500: a compaction that cannot save its index
// is the server's fault — 500 — and the overlay keeps serving exact
// patched answers on the generation it served before.
func TestCompactSaveFailureIs500(t *testing.T) {
	g := chl.GenerateRandom(120, 320, 9, 13)
	_, fx := buildFrozen(t, g)
	s := chl.NewServerFromFlat(fx, 0)
	defer s.Close()
	if err := s.EnableUpdates(g, ""); err != nil {
		t.Fatal(err)
	}
	ops := parityPatchOps(g)
	if _, err := s.Update(ops); err != nil {
		t.Fatal(err)
	}
	patched, err := chl.ApplyPatch(g, ops)
	if err != nil {
		t.Fatal(err)
	}
	po := newParityOracle(patched)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	before := s.Stats()
	missing := filepath.Join(t.TempDir(), "missing", "compacted.flat")
	if got := postRaw(t, ts.URL+"/compact?path="+url.QueryEscape(missing), ""); got != http.StatusInternalServerError {
		t.Fatalf("/compact into a missing directory: status %d, want 500", got)
	}
	after := s.Stats()
	if after.Generation != before.Generation || after.Compactions != 0 || after.Patch == nil || after.Patch.Epoch != before.Patch.Epoch {
		t.Fatalf("a failed compaction published: before %+v, after %+v (patch %+v)", before, after, after.Patch)
	}
	n := g.NumVertices()
	for i := 0; i < 40; i++ {
		u, v := (i*37)%n, (i*101+13)%n
		if got, want := s.Query(u, v), po.from(u)[v]; got != want {
			t.Fatalf("after the failed compaction d(%d,%d) = %v, patched oracle says %v", u, v, got, want)
		}
	}
}
