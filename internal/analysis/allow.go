package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// allowPrefix introduces a suppression annotation:
//
//	//chlvet:allow clockcheck -- build-phase wall-clock metric
//	//chlvet:allow pairkey,floatexact -- reason covering both
//
// The annotation suppresses the named analyzers' findings on its own
// line and on the line immediately below, so it works both as a
// trailing comment and as a line of its own above the code. The
// justification after " -- " is mandatory.
const allowPrefix = "chlvet:allow"

// allowSet maps file → line → analyzer names suppressed there.
type allowSet map[string]map[int]map[string]bool

// collectAllows parses every //chlvet:allow annotation in pkg,
// reporting malformed ones (missing justification, unknown analyzer
// name) under the pseudo-analyzer "chlvet" so a typo cannot silently
// disable nothing.
func collectAllows(pkg *Package, known map[string]bool, diags *[]Diagnostic) allowSet {
	set := allowSet{}
	for _, f := range pkg.AllFiles() {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				parseAllow(pkg.Fset, c, known, set, diags)
			}
		}
	}
	return set
}

func parseAllow(fset *token.FileSet, c *ast.Comment, known map[string]bool, set allowSet, diags *[]Diagnostic) {
	text := strings.TrimPrefix(c.Text, "//")
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, allowPrefix) {
		return
	}
	pos := fset.Position(c.Pos())
	bad := func(format string, args ...any) {
		*diags = append(*diags, Diagnostic{
			Pos:      pos,
			Analyzer: "chlvet",
			Message:  fmt.Sprintf(format, args...),
			Hint:     "write //chlvet:allow <analyzer> -- <justification>",
		})
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, allowPrefix))
	names, justification, ok := strings.Cut(rest, "--")
	if !ok || strings.TrimSpace(justification) == "" {
		bad("chlvet:allow without a justification (want \"-- <why this line is exempt>\")")
		return
	}
	sawName := false
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		sawName = true
		if !known[name] {
			bad("chlvet:allow names unknown analyzer %q", name)
			continue
		}
		for _, line := range []int{pos.Line, pos.Line + 1} {
			byLine := set[pos.Filename]
			if byLine == nil {
				byLine = map[int]map[string]bool{}
				set[pos.Filename] = byLine
			}
			if byLine[line] == nil {
				byLine[line] = map[string]bool{}
			}
			byLine[line][name] = true
		}
	}
	if !sawName {
		bad("chlvet:allow names no analyzer")
	}
}

func (s allowSet) filter(diags []Diagnostic) []Diagnostic {
	out := diags[:0]
	for _, d := range diags {
		if byLine, ok := s[d.Pos.Filename]; ok {
			if names, ok := byLine[d.Pos.Line]; ok && names[d.Analyzer] {
				continue
			}
		}
		out = append(out, d)
	}
	return out
}
