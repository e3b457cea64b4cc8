// Package analysis is chlvet's engine: a small, dependency-free
// reimplementation of the golang.org/x/tools/go/analysis surface (the
// container this repository builds in has no module proxy, so the real
// framework is out of reach) plus the five repo-specific analyzers that
// mechanically enforce invariants nine PRs of serving work established
// by convention:
//
//   - clockcheck: the serving tree runs on the injectable Clock, never
//     on package time directly (PR 7 deleted every sleep-based wait; this
//     keeps them deleted). The label constructors and the experiment
//     harness, whose timers are exported measurements, are out of scope.
//   - pairkey: vertex-pair cache and singleflight keys flow through
//     Cache.pairKey / flightKeyFor, so the PR 5 (u,v)/(v,u) directed
//     aliasing bug class cannot reappear as a hand-rolled u<<32|v.
//   - errcontract: handler files emit errors through the JSON helpers
//     (httpError/writeJSON/writeShed/writeError) with documented status
//     codes only — no naked http.Error or WriteHeader(4xx/5xx).
//   - floatexact: distance answers are bit-exact; epsilon comparisons
//     are flagged in the parity-critical packages.
//   - snapshotref: every snapshot acquire is matched by a deferred (or
//     provably-ordered) release or an explicit ownership transfer — the
//     ref-counted drain rule that keeps hot-swap unmap safe.
//
// A finding is suppressed by annotating the offending line (or the line
// above it) with
//
//	//chlvet:allow <analyzer> -- <justification>
//
// The justification is mandatory: an allow without one is itself a
// diagnostic. cmd/chlvet composes the analyzers into a multichecker run
// over package patterns; the analysistest-style harness in this package
// (RunTest) drives each analyzer over testdata fixtures with // want
// comments.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check, mirroring the shape of
// golang.org/x/tools/go/analysis.Analyzer so the analyzers read (and
// could some day become) standard ones.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //chlvet:allow annotations.
	Name string

	// Doc states the invariant the analyzer enforces and which PR's
	// bug class it pins.
	Doc string

	// AppliesTo reports whether the analyzer runs on a package, given
	// its import path relative to the module root ("" for the root
	// package, "internal/label", "cmd/chlquery", ...). nil means every
	// package. The driver consults it; RunTest bypasses it so fixtures
	// can live under any path.
	AppliesTo func(relPath string) bool

	// Run inspects one package and reports findings via pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet

	// Files are the package's non-test files, fully type-checked.
	Files []*ast.File

	// TestFiles are the package's _test.go files, parsed but not
	// type-checked (Pass.TypesInfo has no entries for them). Analyzers
	// with purely syntactic checks may inspect them; the rest skip
	// them.
	TestFiles []*ast.File

	// Pkg and TypesInfo hold the type-checked package. TypesInfo is
	// never nil, but lookups for TestFiles nodes miss.
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Diagnostic is one finding: a position, the analyzer that produced it,
// the defect, and a one-line fix hint.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	Hint     string
}

// String renders the diagnostic the way chlvet prints it:
// file:line:col: [analyzer] message (fix: hint).
func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	if d.Hint != "" {
		s += " (fix: " + d.Hint + ")"
	}
	return s
}

// Reportf records a finding at pos with a fix hint.
func (p *Pass) Reportf(pos token.Pos, hint, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
		Hint:     hint,
	})
}

// AllFiles returns Files followed by TestFiles.
func (p *Pass) AllFiles() []*ast.File {
	out := make([]*ast.File, 0, len(p.Files)+len(p.TestFiles))
	out = append(out, p.Files...)
	return append(out, p.TestFiles...)
}

// IsTest reports whether f is one of the pass's test files.
func (p *Pass) IsTest(f *ast.File) bool {
	for _, tf := range p.TestFiles {
		if tf == f {
			return true
		}
	}
	return false
}

// Filename returns the base name of the file containing pos.
func (p *Pass) Filename(pos token.Pos) string {
	name := p.Fset.Position(pos).Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return name
}

// pkgCall resolves a call of the form pkg.Fn(...) against an imported
// package path, alias-aware: it returns Fn's name when call's callee is
// a selector on the local name file imports importPath under. When type
// information is available for the selector's base identifier it is
// consulted too, so a local variable shadowing the package name does
// not count.
func (p *Pass) pkgCall(f *ast.File, call *ast.CallExpr, importPath string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	base, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	// Prefer types: the identifier must denote the imported package.
	if obj := p.TypesInfo.Uses[base]; obj != nil {
		pn, ok := obj.(*types.PkgName)
		if !ok || pn.Imported().Path() != importPath {
			return "", false
		}
		return sel.Sel.Name, true
	}
	// Syntactic fallback (test files): match the file's import spec.
	if localImportName(f, importPath) != base.Name {
		return "", false
	}
	return sel.Sel.Name, true
}

// localImportName returns the name importPath is bound to in f: its
// alias when one is given, the path's base name otherwise, "" when the
// file does not import it.
func localImportName(f *ast.File, importPath string) string {
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		if path != importPath {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		if i := strings.LastIndexByte(path, '/'); i >= 0 {
			return path[i+1:]
		}
		return path
	}
	return ""
}

// enclosingFunc returns the innermost function declaration containing
// pos ("" at package scope). Function literals report their enclosing
// declaration — an invariant that holds for a handler helper holds for
// the closures it spawns.
func enclosingFunc(f *ast.File, pos token.Pos) string {
	name := ""
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		if fd.Pos() <= pos && pos <= fd.End() {
			name = fd.Name.Name
		}
	}
	return name
}

// Run applies analyzers to pkg, honoring AppliesTo against the
// package's module-relative path and filtering //chlvet:allow
// suppressions, and returns the surviving diagnostics sorted by
// position. Malformed allow annotations (no justification, unknown
// analyzer name) are reported under the pseudo-analyzer "chlvet".
func Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	return run(pkg, analyzers, false)
}

func run(pkg *Package, analyzers []*Analyzer, bypassAppliesTo bool) []Diagnostic {
	var diags []Diagnostic
	// Allow annotations validate against the full registry, not just
	// the analyzers selected for this run: -only pairkey must not
	// report every //chlvet:allow clockcheck as an unknown name.
	known := map[string]bool{}
	for _, a := range Analyzers {
		known[a.Name] = true
	}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	allows := collectAllows(pkg, known, &diags)
	for _, a := range analyzers {
		if !bypassAppliesTo && a.AppliesTo != nil && !a.AppliesTo(pkg.RelPath) {
			continue
		}
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			TestFiles: pkg.TestFiles,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			diags = append(diags, Diagnostic{
				Analyzer: a.Name,
				Message:  fmt.Sprintf("analyzer failed: %v", err),
			})
		}
	}
	diags = allows.filter(diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags
}
