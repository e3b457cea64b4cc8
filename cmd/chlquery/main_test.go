package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	chl "repro"
)

// bin is the chlquery binary TestMain builds once for every test: the
// exit codes and output lines are the contract scripts read, so the tests
// drive the same artifact.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "chlquery-test")
	if err != nil {
		panic(err)
	}
	bin = filepath.Join(dir, "chlquery")
	code := 1
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build ./cmd/chlquery: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

func runChlquery(t *testing.T, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	var outBuf, errBuf bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &outBuf, &errBuf
	err := cmd.Run()
	switch e := err.(type) {
	case nil:
	case *exec.ExitError:
		exit = e.ExitCode()
	default:
		t.Fatalf("running chlquery %v: %v", args, err)
	}
	return outBuf.String(), errBuf.String(), exit
}

// saveIndex builds g with the library default, freezes it and saves the
// serving file chlquery -load reads.
func saveIndex(t *testing.T, g *chl.Graph) string {
	t.Helper()
	ix, err := chl.Build(g, chl.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fx, err := ix.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ix.flat")
	if err := fx.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// batchLine is the wall-clock line -bench prints.
var batchLine = regexp.MustCompile(`(?m)^batch: (\d+) queries in [0-9.]+s = [0-9.]+ Mq/s \(wall clock\), \d+ reachable$`)

// -bench times the frozen batch engine on this machine, whatever the
// index's directedness.
func TestBenchTimesBothDirectednesses(t *testing.T) {
	for name, g := range map[string]*chl.Graph{
		"undirected": chl.GenerateRoadGrid(8, 8, 1),
		"directed":   chl.GenerateRandomDirected(60, 240, 8, 3),
	} {
		path := saveIndex(t, g)
		stdout, stderr, exit := runChlquery(t, "-load", path, "-bench", "2000")
		if exit != 0 {
			t.Errorf("%s: -bench 2000 exit = %d\nstdout:\n%s\nstderr:\n%s", name, exit, stdout, stderr)
			continue
		}
		m := batchLine.FindStringSubmatch(stdout)
		if m == nil || m[1] != "2000" {
			t.Errorf("%s: no wall-clock batch line for 2000 queries in:\n%s", name, stdout)
		}
	}
}

// The modelled cluster modes are not a chlquery flag: -mode is undefined,
// which the flag package refuses with exit 2.
func TestModeFlagIsUndefined(t *testing.T) {
	path := saveIndex(t, chl.GenerateRoadGrid(4, 4, 1))
	_, stderr, exit := runChlquery(t, "-load", path, "-bench", "10", "-mode", "local")
	if exit != 2 || !strings.Contains(stderr, "flag provided but not defined: -mode") {
		t.Fatalf("-mode local: exit = %d, stderr = %q; want 2 and an undefined-flag error", exit, stderr)
	}
}
