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
)

// bin is the chlvet binary TestMain builds once for every test: the e2e
// contract (exit codes, diagnostic format) is what CI and developers
// see, so the tests drive the same artifact they do.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "chlvet-test")
	if err != nil {
		panic(err)
	}
	bin = filepath.Join(dir, "chlvet")
	code := 1
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build ./cmd/chlvet: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

func runChlvet(t *testing.T, args ...string) (stdout, stderr string, exit int) {
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
		t.Fatalf("running chlvet %v: %v", args, err)
	}
	return outBuf.String(), errBuf.String(), exit
}

// diagLine is the documented diagnostic shape:
// file:line:col: [analyzer] message (fix: hint).
var diagLine = regexp.MustCompile(`^[\w./]+\.go:\d+:\d+: \[(\w+)\] .+ \(fix: .+\)$`)

func TestEndToEndViolatingModule(t *testing.T) {
	stdout, stderr, exit := runChlvet(t, "-C", "testdata/badmod", "./...")
	if exit != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", exit, stdout, stderr)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d diagnostics, want 5 (one per analyzer):\n%s", len(lines), stdout)
	}
	seen := map[string]bool{}
	for _, line := range lines {
		m := diagLine.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("diagnostic %q does not match file:line:col: [analyzer] message (fix: hint)", line)
			continue
		}
		seen[m[1]] = true
	}
	for _, want := range []string{"clockcheck", "pairkey", "errcontract", "floatexact", "snapshotref"} {
		if !seen[want] {
			t.Errorf("no diagnostic from %s in:\n%s", want, stdout)
		}
	}
	// The justified //chlvet:allow in the fixture must suppress through
	// the binary: the allowed() wall-clock read never surfaces.
	if strings.Contains(stdout, "e2e fixture") || strings.Contains(stdout, "allowed") {
		t.Errorf("allow-annotated violation leaked into output:\n%s", stdout)
	}
	if !strings.Contains(stderr, "chlvet: 5 finding(s)") {
		t.Errorf("stderr = %q, want the finding count summary", stderr)
	}
}

// TestOnlySubsetKeepsAllowNames pins a bug found driving the binary:
// allow names must validate against the full analyzer registry, not
// the -only subset, or every //chlvet:allow clockcheck in the tree
// turns into an "unknown analyzer" finding under -only pairkey.
func TestOnlySubsetKeepsAllowNames(t *testing.T) {
	stdout, stderr, exit := runChlvet(t, "-C", "testdata/badmod", "-only", "pairkey", "./...")
	if exit != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", exit, stdout, stderr)
	}
	if strings.Contains(stdout, "unknown analyzer") {
		t.Errorf("-only pairkey rejected an allow naming an unselected analyzer:\n%s", stdout)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(lines) != 1 || !strings.Contains(lines[0], "[pairkey]") {
		t.Errorf("want exactly the pairkey finding, got:\n%s", stdout)
	}
}

func TestEndToEndCleanModule(t *testing.T) {
	stdout, stderr, exit := runChlvet(t, "-C", "testdata/goodmod", "./...")
	if exit != 0 || stdout != "" {
		t.Fatalf("clean module: exit = %d, stdout = %q, stderr = %q; want silent success", exit, stdout, stderr)
	}
}

// TestRepositoryIsClean holds this module to its own invariants on
// every go test ./..., CI's test job included: chlvet only parses, so a
// whole-module run costs a fraction of a second.
func TestRepositoryIsClean(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"-C", "../..", "./..."}, &out, &errw); code != 0 || out.Len()+errw.Len() > 0 {
		t.Fatalf("chlvet ./...: exit %d\n%s%s", code, out.String(), errw.String())
	}
}

func TestEndToEndToolFailure(t *testing.T) {
	_, stderr, exit := runChlvet(t, "-only", "nosuch", "./...")
	if exit != 2 {
		t.Fatalf("unknown analyzer: exit = %d, want 2 (stderr: %s)", exit, stderr)
	}
	if !strings.Contains(stderr, "unknown analyzer") {
		t.Errorf("stderr = %q, want an unknown-analyzer error", stderr)
	}
}

func TestListFlag(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"-list"}, &out, &errw); code != 0 {
		t.Fatalf("-list: exit %d (stderr: %s)", code, errw.String())
	}
	for _, name := range []string{"clockcheck", "pairkey", "errcontract", "floatexact", "snapshotref"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %s:\n%s", name, out.String())
		}
	}
}
