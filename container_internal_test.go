package chl

// One table for every persisted labeling at the API the rest of the stack
// uses: {packed, compressed} × {undirected, directed} saved once and
// opened through every load path — mapped, heap, and the forced
// decode-copy a big-endian or mmap-less host performs — must answer
// bit-identically to the build, report the same ContentHash, and be
// mapped exactly when the path says so; the retired slice encoding is
// refused on every path. The byte-level rows (hostile inputs, alignment,
// retired magics) live beside the format in internal/label.

import (
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/label"
)

func containerFixture(t *testing.T, directed bool) *Index {
	t.Helper()
	g := GenerateScaleFree(300, 3, 4)
	if directed {
		g = GenerateRandomDirected(200, 1000, 9, 3)
	}
	ix, err := Build(g, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestContainerRoundTrip(t *testing.T) {
	for _, directed := range []bool{false, true} {
		ix := containerFixture(t, directed)
		for _, enc := range []string{"slices", "packed", "compressed"} {
			name := enc + map[bool]string{false: "/undirected", true: "/directed"}[directed]
			t.Run(name, func(t *testing.T) {
				fx, err := ix.Freeze()
				if err == nil && enc == "compressed" {
					fx, err = fx.Compress()
				}
				if err != nil {
					t.Fatal(err)
				}
				path := filepath.Join(t.TempDir(), "ix.chfx")
				if err := fx.SaveFile(path); err != nil {
					t.Fatal(err)
				}
				wantHash := fx.ContentHash()
				file, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				// The slice encoding chl -out used to write is retired: the
				// same file under encoding byte 1 is refused by every door,
				// which names the command that rebuilds it.
				if enc == "slices" {
					file[5] = 1
					if err := os.WriteFile(path, file, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				paths := map[string]func() (*FlatIndex, error){
					"mapped": func() (*FlatIndex, error) { return LoadFlatMapped(path) },
					"heap":   func() (*FlatIndex, error) { return LoadFlatFile(path) },
					"alias=false": func() (*FlatIndex, error) {
						c, err := label.OpenContainer(file, false)
						if err != nil {
							return nil, err
						}
						return flatFromContainer(c), nil
					},
				}
				n := ix.NumVertices()
				for pname, open := range paths {
					t.Run(pname, func(t *testing.T) {
						got, err := open()
						if errors.Is(err, label.ErrNotMappable) && pname == "mapped" {
							t.Skipf("platform cannot mmap: %v", err)
						}
						if enc == "slices" {
							if err == nil || !strings.Contains(err.Error(), "chl -out") {
								t.Fatalf("a slice-encoded file opened on the %s path: %v", pname, err)
							}
							return
						}
						if err != nil {
							t.Fatal(err)
						}
						defer got.Close()
						if h := got.ContentHash(); h != wantHash {
							t.Fatalf("ContentHash %d, the saved index had %d", h, wantHash)
						}
						if pages := got.Prefault(); got.Mapped() != (pname == "mapped") || (pages > 0) != got.Mapped() {
							t.Fatalf("Mapped() = %v, Prefault() = %d on the %s path", got.Mapped(), pages, pname)
						}
						rng := rand.New(rand.NewSource(5))
						for i := 0; i < 2000; i++ {
							u, v := rng.Intn(n), rng.Intn(n)
							gd, gh, gok := got.QueryHub(u, v)
							wd, wh, wok := ix.QueryHub(u, v)
							if gd != wd || gok != wok || (wok && gh != wh) {
								t.Fatalf("QueryHub(%d,%d) = (%v,%d,%v), the build says (%v,%d,%v)", u, v, gd, gh, gok, wd, wh, wok)
							}
						}
					})
				}
			})
		}
	}
}

// SaveFile replaces, never rewrites: the old inode stays intact under
// whoever has it mapped, the path names the new content, and nothing else
// is left in the directory.
func TestSaveFileOverMappedIndex(t *testing.T) {
	old, err := containerFixture(t, false).Freeze()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := containerFixture(t, true).Freeze()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "live.flat")
	if err := old.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	held, err := OpenFlat(path)
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	type pair struct{ u, v int }
	sample := make(map[pair]float64)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 500; i++ {
		p := pair{rng.Intn(old.NumVertices()), rng.Intn(old.NumVertices())}
		sample[p] = old.Query(p.u, p.v)
	}
	for round := 0; round < 3; round++ { // a truncate-in-place writer would SIGBUS the held mapping here
		if err := fresh.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		for p, want := range sample {
			if got := held.Query(p.u, p.v); got != want {
				t.Fatalf("round %d: the held index answers (%d,%d) = %v, had %v before the save", round, p.u, p.v, got, want)
			}
		}
	}
	if held.ContentHash() != old.ContentHash() {
		t.Fatal("the held index's content changed under it")
	}
	reopened, err := OpenFlat(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.ContentHash() != fresh.ContentHash() || !reopened.Directed() {
		t.Fatal("a fresh OpenFlat does not see the saved content")
	}
	// The replaced file has the mode os.Create gives one under this umask.
	plain, err := os.Create(filepath.Join(dir, "plain"))
	if err != nil {
		t.Fatal(err)
	}
	plain.Close()
	saved, _ := os.Stat(path)
	created, _ := os.Stat(plain.Name())
	if saved.Mode() != created.Mode() {
		t.Fatalf("SaveFile left mode %v, os.Create gives %v", saved.Mode(), created.Mode())
	}
	os.Remove(plain.Name())
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("SaveFile left %d entries in the directory, want just the index", len(entries))
	}
	// A save that cannot complete leaves the target and the directory alone.
	if err := fresh.SaveFile(filepath.Join(dir, "no-such-dir", "x.flat")); err == nil {
		t.Fatal("SaveFile into a missing directory succeeded")
	}
	if err := writeFileAtomic(path, func(w io.Writer) error { return os.ErrInvalid }); err == nil {
		t.Fatal("failed save reported success")
	}
	if again, _ := os.ReadDir(dir); len(again) != 1 {
		t.Fatalf("a failed save left %d entries behind", len(again))
	}
	if after, err := OpenFlat(path); err != nil || after.ContentHash() != fresh.ContentHash() {
		t.Fatalf("a failed save disturbed the target: %v", err)
	} else {
		after.Close()
	}
}
