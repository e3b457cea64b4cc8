package delta

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// runsOf supplies a Log with the frozen runs of fl, the way a serving
// tier reads them from its index.
func runsOf(fl frozenLabels) Runs {
	return func(verts []int) (fwd, bwd [][]uint64, err error) {
		for _, p := range verts {
			fwd, bwd = append(fwd, fl.fwd.PackedRun(p)), append(bwd, fl.bwd.PackedRun(p))
		}
		return fwd, bwd, nil
	}
}

// TestLogLifecycle walks one Log through its steps: a batch whose
// overlay cannot be built is neither journaled nor adopted; refusals are
// Refused and other failures are not; Replay appends nothing; and after
// Compacted the next batch reduces against the new base, with an empty
// journal and the epoch still counting.
func TestLogLifecycle(t *testing.T) {
	g := pathGraph(6, false)
	fl := freezeLabels(g)
	unit := fl.fwd.UnitExp()
	journal := filepath.Join(t.TempDir(), "patch.log")
	readJ := func() []byte {
		t.Helper()
		b, err := os.ReadFile(journal)
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		return b
	}
	l := NewLog(g, journal)

	short := func(verts []int) ([][]uint64, [][]uint64, error) {
		fwd, bwd, _ := runsOf(fl)(verts)
		return fwd[1:], bwd[1:], nil
	}
	if _, err := l.Apply(line(t, "del 1 2"), unit, short); err == nil || Refused(err) {
		t.Fatalf("a run-count mismatch: %v, want a failure that is not a refusal", err)
	}
	if j := readJ(); len(j) != 0 || l.Len() != 0 {
		t.Fatalf("a batch whose overlay failed was adopted: journal %q, %d ops", j, l.Len())
	}
	for _, bad := range [][]Op{nil, line(t, "del 0 5")} {
		if _, err := l.Apply(bad, unit, runsOf(fl)); !Refused(err) {
			t.Fatalf("Apply(%v): %v, want a refusal", bad, err)
		}
	}
	if _, err := l.Patched(); !Refused(err) {
		t.Fatalf("Patched with nothing outstanding: %v, want a refusal", err)
	}

	first := line(t, "del 1 2\nadd 0 5 1")
	ov, err := l.Apply(first, unit, runsOf(fl))
	if err != nil || ov.Serving() == nil || ov.Epoch() != 1 {
		t.Fatalf("Apply(%v) = %v, %v; want a serving overlay at epoch 1", first, ov, err)
	}
	// The second batch cancels the first: its overlay serves as none.
	if ov, err := l.Apply(line(t, "add 1 2 1\ndel 0 5"), unit, runsOf(fl)); err != nil || ov.Serving() != nil || l.Len() != 4 || ov.Epoch() != 2 {
		t.Fatalf("cancelling batch = %v, %v with %d ops; want an overlay at epoch 2 that serves as none, 4 ops", ov, err, l.Len())
	}
	want := readJ()
	if !bytes.Equal(want, FormatPatchLog(line(t, "del 1 2\nadd 0 5 1\nadd 1 2 1\ndel 0 5"))) {
		t.Fatalf("journal %q", want)
	}

	replayed := NewLog(g, journal)
	if ov, err := replayed.Replay(unit, runsOf(fl)); err != nil || ov.Serving() != nil || replayed.Len() != 4 || ov.Epoch() != 1 {
		t.Fatalf("Replay = %v, %v with %d ops; want an overlay at epoch 1 that serves as none, 4 ops", ov, err, replayed.Len())
	}
	if ov, err := NewLog(g, filepath.Join(t.TempDir(), "absent.log")).Replay(unit, runsOf(fl)); ov != nil || err != nil {
		t.Fatalf("replaying a missing journal = %v, %v; want nothing", ov, err)
	}
	if got := readJ(); !bytes.Equal(got, want) {
		t.Fatalf("Replay appended: journal %q, was %q", got, want)
	}

	if _, err := l.Apply(line(t, "del 2 3"), unit, runsOf(fl)); err != nil {
		t.Fatal(err)
	}
	patched, err := l.Patched()
	if err != nil {
		t.Fatal(err)
	}
	if _, has := patched.HasEdge(2, 3); has {
		t.Fatal("Patched still holds the deleted edge")
	}
	if err := l.Compacted(patched); err != nil {
		t.Fatal(err)
	}
	if j := readJ(); len(j) != 0 || l.Len() != 0 || l.Base() != patched {
		t.Fatalf("after Compacted: journal %q, %d ops", j, l.Len())
	}
	fl = freezeLabels(patched)
	if _, err := l.Apply(line(t, "del 2 3"), unit, runsOf(fl)); !Refused(err) {
		t.Fatalf("deleting an edge the new base lacks: %v, want a refusal", err)
	}
	ov, err = l.Apply(line(t, "add 2 3 2"), unit, runsOf(fl))
	if err != nil || ov == nil || ov.Epoch() != 4 {
		t.Fatalf("first batch after compaction = %v, %v; want an overlay at epoch 4", ov, err)
	}
	if j := readJ(); string(j) != "add 2 3 2\n" {
		t.Fatalf("journal after compaction %q", j)
	}
	if d, _, _ := fl.query(ov, 0, 5); d != 6 {
		t.Fatalf("d(0,5) = %v after compaction and a reinsert of weight 2, want 6", d)
	}
}
