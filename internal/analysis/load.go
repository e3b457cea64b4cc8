package analysis

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed package ready for analysis. Nothing is
// type-checked: every analyzer matches syntax.
type Package struct {
	RelPath string // directory relative to the module root: "" for the root package, "internal/label", ...
	Fset    *token.FileSet

	Files     []*ast.File // non-test files; none in a test-only package
	TestFiles []*ast.File // _test.go files, the external test package's included
}

// LoadDir parses the package in dir with comments, for the analyzers'
// allow directives. Files are selected by go/build for the host
// GOOS/GOARCH and toolchain, exactly as `go build` would select them
// here. A directory that holds only _test.go files is a package of test
// files alone, as the go tool lists it.
func LoadDir(dir string) (*Package, error) {
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Fset: token.NewFileSet()}
	if pkg.Files, err = parseFiles(pkg.Fset, dir, bp.GoFiles); err != nil {
		return nil, err
	}
	if pkg.TestFiles, err = parseFiles(pkg.Fset, dir, append(bp.TestGoFiles, bp.XTestGoFiles...)); err != nil {
		return nil, err
	}
	return pkg, nil
}

// AllFiles returns Files followed by TestFiles.
func (p *Package) AllFiles() []*ast.File {
	out := make([]*ast.File, 0, len(p.Files)+len(p.TestFiles))
	out = append(out, p.Files...)
	return append(out, p.TestFiles...)
}

// IsTest reports whether f is one of the package's test files.
func (p *Package) IsTest(f *ast.File) bool {
	for _, tf := range p.TestFiles {
		if tf == f {
			return true
		}
	}
	return false
}

func parseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// Loader resolves package patterns and loads packages within one module.
type Loader struct {
	ModDir string
}

// NewLoader returns a loader rooted at the module containing dir: the
// nearest directory at or above it that holds a go.mod.
func NewLoader(dir string) (*Loader, error) {
	start, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	for dir := start; ; dir = filepath.Dir(dir) {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return &Loader{ModDir: dir}, nil
		}
		if dir == filepath.Dir(dir) {
			return nil, fmt.Errorf("no go.mod at or above %s", start)
		}
	}
}

// Load loads the package in the module-relative directory rel, as
// ExpandPatterns returns it.
func (l *Loader) Load(rel string) (*Package, error) {
	pkg, err := LoadDir(filepath.Join(l.ModDir, filepath.FromSlash(rel)))
	if err != nil {
		return nil, err
	}
	pkg.RelPath = rel
	return pkg, nil
}

// ExpandPatterns resolves package patterns ("./...", "./internal/label")
// against the module tree into module-relative package directories
// ("" for the root), in sorted order. Vendored trees, testdata, hidden
// directories, and nested modules (a directory with its own go.mod,
// like chlvet's own test fixtures) are skipped, matching the go tool's
// ./... semantics.
func (l *Loader) ExpandPatterns(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	add := func(dir string) {
		rel, _ := filepath.Rel(l.ModDir, dir)
		if rel = filepath.ToSlash(rel); rel == "." {
			rel = ""
		}
		if !seen[rel] {
			seen[rel] = true
			out = append(out, rel)
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
				return nil, fmt.Errorf("no Go files in %s", root)
			}
			add(root)
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
				add(path)
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
