package delta

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLogLifecycle walks one Log through its steps: a batch whose
// journal append fails is not adopted; refusals are Refused and other
// failures are not; OpenLog replays the journal and appends nothing,
// refuses a journal it cannot read, and opens a missing one empty; and
// after Compacted the next batch reduces against the new base, with an
// empty journal and the epoch still counting.
func TestLogLifecycle(t *testing.T) {
	g := pathGraph(6, false)
	journal := filepath.Join(t.TempDir(), "patch.log")
	readJ := func() []byte {
		t.Helper()
		b, err := os.ReadFile(journal)
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		return b
	}
	open := func(journal string) *Log {
		t.Helper()
		l, ov, err := OpenLog(g, journal)
		if err != nil {
			t.Fatal(err)
		}
		if ov != nil || l.Len() != 0 {
			t.Fatalf("OpenLog(%q) = %d ops, overlay %v; want an empty log", journal, l.Len(), ov)
		}
		return l
	}
	// A journal that turns into a directory after the log opened it.
	unwritableAt := filepath.Join(t.TempDir(), "j")
	unwritable := open(unwritableAt)
	if err := os.Mkdir(unwritableAt, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := unwritable.Apply(line(t, "del 1 2")); err == nil || Refused(err) {
		t.Fatalf("a journal that is a directory: %v, want a failure that is not a refusal", err)
	}
	if _, err := unwritable.Patched(); unwritable.Len() != 0 || !Refused(err) {
		t.Fatalf("a batch whose journal append failed was adopted: %d ops", unwritable.Len())
	}
	l := open(journal)
	for _, bad := range [][]Op{nil, line(t, "del 0 5")} {
		if _, err := l.Apply(bad); !Refused(err) {
			t.Fatalf("Apply(%v): %v, want a refusal", bad, err)
		}
	}
	if _, err := l.Patched(); !Refused(err) {
		t.Fatalf("Patched with nothing outstanding: %v, want a refusal", err)
	}

	first := line(t, "del 1 2\nadd 0 5 1")
	ov, err := l.Apply(first)
	if err != nil || ov.Serving() == nil || ov.Epoch() != 1 {
		t.Fatalf("Apply(%v) = %v, %v; want a serving overlay at epoch 1", first, ov, err)
	}
	// The second batch cancels the first: its overlay serves as none.
	if ov, err := l.Apply(line(t, "add 1 2 1\ndel 0 5")); err != nil || ov.Serving() != nil || l.Len() != 4 || ov.Epoch() != 2 {
		t.Fatalf("cancelling batch = %v, %v with %d ops; want an overlay at epoch 2 that serves as none, 4 ops", ov, err, l.Len())
	}
	want := readJ()
	if !bytes.Equal(want, FormatPatchLog(line(t, "del 1 2\nadd 0 5 1\nadd 1 2 1\ndel 0 5"))) {
		t.Fatalf("journal %q", want)
	}

	replayed, ov, err := OpenLog(g, journal)
	if err != nil || ov.Serving() != nil || replayed.Len() != 4 || ov.Epoch() != 1 {
		t.Fatalf("OpenLog = %v, %v with %d ops; want an overlay at epoch 1 that serves as none, 4 ops", ov, err, replayed.Len())
	}
	if got := readJ(); !bytes.Equal(got, want) {
		t.Fatalf("OpenLog appended: journal %q, was %q", got, want)
	}
	open(filepath.Join(t.TempDir(), "absent.log"))
	dir := t.TempDir()
	if l, ov, err := OpenLog(g, dir); l != nil || ov != nil || err == nil || Refused(err) || !strings.Contains(err.Error(), dir) {
		t.Fatalf("OpenLog over a journal that is a directory = %v, %v, %v; want a failure naming it", l, ov, err)
	}

	if _, err := l.Apply(line(t, "del 2 3")); err != nil {
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
	fl := freezeLabels(patched)
	if _, err := l.Apply(line(t, "del 2 3")); !Refused(err) {
		t.Fatalf("deleting an edge the new base lacks: %v, want a refusal", err)
	}
	ov, err = l.Apply(line(t, "add 2 3 2"))
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
