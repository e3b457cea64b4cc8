package analysis

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path    string // import path ("repro/internal/label", or the fixture name under a source root)
	RelPath string // path relative to the module root: "" for the root package, "internal/label", ...
	Dir     string
	Fset    *token.FileSet

	Files     []*ast.File // non-test files, type-checked
	TestFiles []*ast.File // _test.go files, parsed only

	Types *types.Package
	Info  *types.Info
}

// Loader loads and type-checks packages with no tooling dependencies:
// module-local import paths resolve against the module directory, the
// rest (the standard library) through go/importer's source importer,
// which compiles from GOROOT/src — no compiled export data, no module
// proxy, no network. Files are selected by go/build for the host
// GOOS/GOARCH and toolchain, exactly as `go build` would select them here.
//
// One Loader shares a FileSet, a type-checker cache, and a stdlib
// importer across every Load, so a whole-module run type-checks each
// package exactly once.
type Loader struct {
	ModPath string // module path from go.mod ("" when loading from SrcRoot only)
	ModDir  string
	SrcRoot string // GOPATH-style fallback root for fixture imports (testdata/src)

	Fset  *token.FileSet
	std   types.ImporterFrom
	cache map[string]*Package
}

// NewLoader returns a loader rooted at the module containing dir,
// reading the module path from its go.mod.
func NewLoader(dir string) (*Loader, error) {
	modDir, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	l := newLoader()
	l.ModPath, l.ModDir = modPath, modDir
	return l, nil
}

// NewFixtureLoader returns a loader that resolves import paths under a
// GOPATH-style source root (testdata/src): import path "x" loads
// root/x. Used by the analysistest harness.
func NewFixtureLoader(root string) *Loader {
	l := newLoader()
	l.SrcRoot = root
	return l
}

func newLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		cache: map[string]*Package{},
	}
}

// findModule walks up from dir to the enclosing go.mod.
func findModule(dir string) (modDir, modPath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("chlvet: %s/go.mod has no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("chlvet: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) { return l.ImportFrom(path, "", 0) }

// ImportFrom implements types.ImporterFrom: module-local and
// source-root paths load through the Loader itself (cached), the rest
// through the stdlib source importer.
func (l *Loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if dir, ok := l.resolve(path); ok {
		pkg, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, srcDir, mode)
}

// resolve maps an import path to a directory when the loader owns it.
func (l *Loader) resolve(path string) (string, bool) {
	if l.ModPath != "" {
		if path == l.ModPath {
			return l.ModDir, true
		}
		if rest, ok := strings.CutPrefix(path, l.ModPath+"/"); ok {
			return filepath.Join(l.ModDir, filepath.FromSlash(rest)), true
		}
	}
	if l.SrcRoot != "" {
		dir := filepath.Join(l.SrcRoot, filepath.FromSlash(path))
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			return dir, true
		}
	}
	return "", false
}

// Load loads, parses, and type-checks the package at importPath.
func (l *Loader) Load(importPath string) (*Package, error) {
	dir, ok := l.resolve(importPath)
	if !ok {
		return nil, fmt.Errorf("chlvet: %s is not under this module", importPath)
	}
	return l.load(importPath, dir)
}

func (l *Loader) load(importPath, dir string) (*Package, error) {
	if pkg, ok := l.cache[importPath]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("chlvet: import cycle through %s", importPath)
		}
		return pkg, nil
	}
	l.cache[importPath] = nil // cycle guard
	pkg, err := l.check(importPath, dir)
	if err != nil {
		delete(l.cache, importPath)
		return nil, err
	}
	l.cache[importPath] = pkg
	return pkg, nil
}

func (l *Loader) check(importPath, dir string) (*Package, error) {
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("chlvet: %w", err)
	}
	files, err := l.parse(dir, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	testFiles, err := l.parse(dir, append(bp.TestGoFiles, bp.XTestGoFiles...))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("chlvet: no buildable Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("chlvet: type-checking %s: %w", importPath, err)
	}
	rel := ""
	if l.ModPath != "" && importPath != l.ModPath {
		rel = strings.TrimPrefix(importPath, l.ModPath+"/")
	}
	return &Package{
		Path:      importPath,
		RelPath:   rel,
		Dir:       dir,
		Fset:      l.Fset,
		Files:     files,
		TestFiles: testFiles,
		Types:     tpkg,
		Info:      info,
	}, nil
}

// parse parses the named files of dir, keeping comments for the
// analyzers' allow directives.
func (l *Loader) parse(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// ExpandPatterns resolves package patterns ("./...", "./internal/label")
// against the module tree into import paths, in sorted order. Vendored
// trees, testdata, hidden directories, and nested modules (a directory
// with its own go.mod, like chlvet's own test fixtures) are skipped,
// matching the go tool's ./... semantics.
func (l *Loader) ExpandPatterns(patterns []string) ([]string, error) {
	if l.ModPath == "" {
		return nil, fmt.Errorf("chlvet: pattern expansion needs a module root")
	}
	seen := map[string]bool{}
	var out []string
	add := func(rel string) {
		path := l.ModPath
		if rel != "" && rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		if !seen[path] {
			seen[path] = true
			out = append(out, path)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if pat == "..." || pat == "./..." {
			pat, recursive = ".", true
		} else if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			pat, recursive = rest, true
		}
		pat = strings.TrimPrefix(pat, "./")
		root := filepath.Join(l.ModDir, filepath.FromSlash(pat))
		if !recursive {
			if ok, err := hasGoFiles(root); err != nil {
				return nil, err
			} else if !ok {
				return nil, fmt.Errorf("chlvet: no Go files in %s", root)
			}
			rel, _ := filepath.Rel(l.ModDir, root)
			add(rel)
			continue
		}
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			if path != root {
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir // nested module
				}
			}
			if ok, err := hasGoFiles(path); err != nil {
				return err
			} else if ok {
				rel, _ := filepath.Rel(l.ModDir, path)
				add(rel)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(out)
	return out, nil
}

// hasGoFiles reports whether dir holds a package the go tool would list:
// one with Go files, test files included, that build for the host.
func hasGoFiles(dir string) (bool, error) {
	_, err := build.ImportDir(dir, 0)
	var noGo *build.NoGoError
	if errors.As(err, &noGo) {
		return false, nil
	}
	return err == nil, err
}
