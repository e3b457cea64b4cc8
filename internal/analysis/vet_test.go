package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestClockcheck(t *testing.T) { RunTest(t, "testdata", Clockcheck, "clockcheck") }

// TestClockcheckTestOnly loads a package of _test.go files alone: the
// go tool lists it, so chlvet must load it and hold its tests to the
// no-sleep rule rather than refuse the directory.
func TestClockcheckTestOnly(t *testing.T) { RunTest(t, "testdata", Clockcheck, "testonly") }

func TestPairkey(t *testing.T) { RunTest(t, "testdata", Pairkey, "pairkey") }

func TestErrcontract(t *testing.T) { RunTest(t, "testdata", Errcontract, "errcontract") }

func TestFloatexact(t *testing.T) { RunTest(t, "testdata", Floatexact, "floatexact") }

func TestSnapshotref(t *testing.T) { RunTest(t, "testdata", Snapshotref, "snapshotref") }

// TestAllowAnnotations drives the allowbad fixture directly: malformed
// annotations must surface as chlvet pseudo-diagnostics, must not
// suppress the finding beneath them, and a well-formed one must.
func TestAllowAnnotations(t *testing.T) {
	pkg, err := LoadDir("testdata/src/allowbad")
	if err != nil {
		t.Fatalf("loading allowbad: %v", err)
	}
	diags := run(pkg, []*Analyzer{Clockcheck}, true)

	var got []string
	for _, d := range diags {
		got = append(got, "["+d.Analyzer+"] "+d.Message)
	}
	wants := []string{
		"[chlvet] chlvet:allow without a justification",
		"[chlvet] chlvet:allow names unknown analyzer \"clokcheck\"",
		// Neither malformed annotation suppresses anything: the two
		// time.Now calls under them still surface.
		"[clockcheck] time.Now outside the Clock discipline",
		"[clockcheck] time.Now outside the Clock discipline",
	}
	if len(got) != len(wants) {
		t.Fatalf("got %d diagnostics, want %d:\n%s", len(got), len(wants), strings.Join(got, "\n"))
	}
	matched := make([]bool, len(got))
	for _, want := range wants {
		found := false
		for i, g := range got {
			if !matched[i] && strings.Contains(g, want) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no diagnostic containing %q in:\n%s", want, strings.Join(got, "\n"))
		}
	}
}

// TestAppliesTo pins each analyzer's package scope.
func TestAppliesTo(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		rel      string
		want     bool
	}{
		{Clockcheck, "", true},
		{Clockcheck, "internal/label", true},
		{Clockcheck, "internal/delta", true},
		{Clockcheck, "internal/ptree", true}, // not on the list: checked by default
		{Clockcheck, "internal/pll", false},
		{Clockcheck, "internal/gll", false},
		{Clockcheck, "internal/plant", false},
		{Clockcheck, "internal/dist", false},
		{Clockcheck, "internal/exp", false},
		{Clockcheck, "cmd/chlquery", false},
		{Clockcheck, "examples/quickstart", false},
		{Pairkey, "", true},
		{Pairkey, "internal/shard", false},
		{Errcontract, "", true},
		{Errcontract, "cmd/chlrouter", false},
		{Floatexact, "", true},
		{Floatexact, "internal/label", true},
		{Floatexact, "internal/delta", true},
		{Floatexact, "internal/graph", false},
		{Snapshotref, "", true},
		{Snapshotref, "internal/dist", false},
	}
	for _, c := range cases {
		if got := c.analyzer.AppliesTo(c.rel); got != c.want {
			t.Errorf("%s.AppliesTo(%q) = %v, want %v", c.analyzer.Name, c.rel, got, c.want)
		}
	}
}

func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != len(Analyzers) {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want all %d", len(all), err, len(Analyzers))
	}
	two, err := ByName("clockcheck, pairkey")
	if err != nil || len(two) != 2 || two[0] != Clockcheck || two[1] != Pairkey {
		t.Fatalf("ByName subset = %v, err %v", two, err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName accepted an unknown analyzer")
	}
}

func TestDocumentedStatusList(t *testing.T) {
	if got, want := DocumentedStatusList(), "400/404/405/409/413/421/429/500/502/503"; got != want {
		t.Fatalf("DocumentedStatusList() = %q, want %q", got, want)
	}
}

func TestParseWant(t *testing.T) {
	pats, ok, err := parseWant(`// want "a b" "c(d)?"`)
	if err != nil || !ok || len(pats) != 2 || pats[0] != "a b" || pats[1] != "c(d)?" {
		t.Fatalf("parseWant = %v, %v, %v", pats, ok, err)
	}
	if _, ok, _ := parseWant("// a plain comment"); ok {
		t.Fatal("plain comment parsed as want")
	}
	if _, ok, err := parseWant(`// want unquoted`); !ok || err == nil {
		t.Fatal("malformed want not rejected")
	}
}

// TestHTTPStatusTable holds httpStatusByName to the toolchain's own
// net/http status constants: a status written by any of their names must
// fold, or errcontract would pass it unchecked.
func TestHTTPStatusTable(t *testing.T) {
	out, err := exec.Command("go", "env", "GOROOT").Output()
	if err != nil {
		t.Fatalf("go env GOROOT: %v", err)
	}
	path := filepath.Join(strings.TrimSpace(string(out)), "src", "net", "http", "status.go")
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, d := range f.Decls {
		d, ok := d.(*ast.GenDecl)
		if !ok || d.Tok != token.CONST {
			continue
		}
		for _, spec := range d.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, name := range vs.Names {
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok || !strings.HasPrefix(name.Name, "Status") {
					continue
				}
				want, _ := strconv.ParseInt(lit.Value, 0, 64)
				if got, ok := httpStatusByName[name.Name]; !ok || got != want {
					t.Errorf("httpStatusByName[%q] = %d, %v; net/http declares %d", name.Name, got, ok, want)
				}
				n++
			}
		}
	}
	if n == 0 {
		t.Fatalf("no Status constants found in %s", path)
	}
}

// TestStatusFoldCycles checks that constant cycles, which parse but do
// not compile, fail the fold and are folded in time linear in the
// constants: a ring of 60 constants each used on both sides of + would
// take 2^60 steps without memoisation.
func TestStatusFoldCycles(t *testing.T) {
	var src strings.Builder
	src.WriteString("package p\nconst (\n\ta = a + a\n\tb = c * c\n\tc = b + b\n\td = 400 + 4\n\te = d\n")
	const ring = 60
	for i := 0; i < ring; i++ {
		fmt.Fprintf(&src, "\tr%d = r%d + r%d\n", i, (i+1)%ring, (i+1)%ring)
	}
	src.WriteString(")\n")
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", src.String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		folder := newStatusFolder([]*ast.File{f})
		for _, name := range []string{"a", "b", "c", "r0", "r37"} {
			if code, ok := folder.status(ast.NewIdent(name)); ok {
				t.Errorf("cyclic constant %s folded to %d", name, code)
			}
		}
		if code, ok := folder.status(ast.NewIdent("e")); !ok || code != 404 {
			t.Errorf("e folded to %d, %v; want 404", code, ok)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("folding a constant cycle did not end")
	}
}
