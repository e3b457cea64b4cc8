package analysis

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// RunTest drives one analyzer over a fixture package and compares its
// diagnostics against // want comments, mirroring
// golang.org/x/tools/go/analysis/analysistest, which this module does
// not depend on. The fixture is the directory testdata/src/<pkgname>;
// every expected finding is annotated on its line:
//
//	start := time.Now() // want "time.Now outside the Clock discipline"
//
// Each quoted string is a regexp matched against the diagnostic
// message; several on one line expect several findings there. The
// comparison is exact both ways: an unmatched diagnostic and an
// unsatisfied want are both test failures. AppliesTo is bypassed so
// fixtures can live under any import path; //chlvet:allow filtering
// runs exactly as in production, so fixtures exercise the escape hatch
// too (malformed allows surface as "chlvet" diagnostics, matchable
// with want comments like any other).
func RunTest(t *testing.T, testdata string, a *Analyzer, pkgname string) {
	t.Helper()
	pkg, err := LoadDir(filepath.Join(testdata, "src", pkgname))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pkgname, err)
	}
	diags := run(pkg, []*Analyzer{a}, true)

	wants := collectWants(t, pkg)
	for _, d := range diags {
		key := posKey{d.Pos.Filename, d.Pos.Line}
		if !wants.match(key, d.Message) {
			t.Errorf("unexpected diagnostic at %s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
		}
	}
	wants.reportUnmatched(t)
}

type posKey struct {
	file string
	line int
}

type wantExp struct {
	re      *regexp.Regexp
	matched bool
}

type wantSet map[posKey][]*wantExp

// match consumes one unmatched expectation at key whose regexp matches
// the message.
func (w wantSet) match(key posKey, message string) bool {
	for _, exp := range w[key] {
		if !exp.matched && exp.re.MatchString(message) {
			exp.matched = true
			return true
		}
	}
	return false
}

func (w wantSet) reportUnmatched(t *testing.T) {
	t.Helper()
	for key, exps := range w {
		for _, exp := range exps {
			if !exp.matched {
				t.Errorf("no diagnostic at %s:%d matching %q", key.file, key.line, exp.re)
			}
		}
	}
}

// collectWants parses the // want comments from every fixture file,
// test files included.
func collectWants(t *testing.T, pkg *Package) wantSet {
	t.Helper()
	set := wantSet{}
	for _, f := range pkg.AllFiles() {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				patterns, ok, err := parseWant(c.Text)
				if err != nil {
					pos := pkg.Fset.Position(c.Pos())
					t.Fatalf("%s:%d: %v", pos.Filename, pos.Line, err)
				}
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := posKey{pos.Filename, pos.Line}
				for _, p := range patterns {
					re, err := regexp.Compile(p)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, p, err)
					}
					set[key] = append(set[key], &wantExp{re: re})
				}
			}
		}
	}
	return set
}

// parseWant extracts the quoted regexps from a `// want "re" "re"`
// comment; ok is false for any other comment.
func parseWant(text string) (patterns []string, ok bool, err error) {
	body := strings.TrimSpace(strings.TrimPrefix(text, "//"))
	rest, isWant := strings.CutPrefix(body, "want ")
	if !isWant {
		return nil, false, nil
	}
	rest = strings.TrimSpace(rest)
	for rest != "" {
		q, qerr := strconv.QuotedPrefix(rest)
		if qerr != nil {
			return nil, true, fmt.Errorf("malformed want comment (expected quoted regexps): %q", text)
		}
		s, _ := strconv.Unquote(q)
		patterns = append(patterns, s)
		rest = strings.TrimSpace(rest[len(q):])
	}
	if len(patterns) == 0 {
		return nil, true, fmt.Errorf("want comment with no expectations: %q", text)
	}
	return patterns, true, nil
}
