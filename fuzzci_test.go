package chl_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fuzzExempt lists the fuzz targets (package:Name, the package as CI's
// `go test` names it) that the CI fuzz job does not run past their
// seeds, each with its reason. go test ./... still runs every seed.
var fuzzExempt = map[string]string{}

// ciFuzzStep matches a CI step that fuzzes one target of one package:
// `go test ... -fuzz=Name ... ./pkg`.
var ciFuzzStep = regexp.MustCompile(`go test .*-fuzz=\^?(\w+)\$?\s(?:.*\s)?(\.\S*)\s*$`)

// Every fuzz target in the module outside bench/ runs in the CI fuzz job
// (.github/workflows/ci.yml) or names its reason in fuzzExempt. Every fuzz
// step names a target that exists: go test -fuzz passes when its pattern
// matches none.
func TestEveryFuzzTargetRunsInCI(t *testing.T) {
	targets := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "./" + filepath.ToSlash(filepath.Dir(path))
		if pkg == "./." {
			pkg = "."
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Fuzz") {
				targets[pkg+":"+fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) == 0 {
		t.Fatal("found no fuzz targets in the module")
	}

	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	steps := map[string]bool{}
	for _, line := range strings.Split(string(ci), "\n") {
		if m := ciFuzzStep.FindStringSubmatch(line); m != nil {
			key := m[2] + ":" + m[1]
			steps[key] = true
			if !targets[key] {
				t.Errorf("ci.yml fuzzes %s in %s, which has no such fuzz target", m[1], m[2])
			}
		}
	}
	for key := range targets {
		if steps[key] {
			continue
		}
		if reason, exempt := fuzzExempt[key]; !exempt || strings.TrimSpace(reason) == "" {
			pkg, name, _ := strings.Cut(key, ":")
			t.Errorf("fuzz target %s is not run by CI: add `go test -run=^$ -fuzz=%s -fuzztime=30s %s` to the fuzz job of ci.yml, or a fuzzExempt row with the reason", key, name, pkg)
		}
	}
}
