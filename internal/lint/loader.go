package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Package is one type-checked package ready for analysis.
type Package struct {
	Path  string // import path ("pimflow/internal/serve", or synthetic for fixtures)
	Dir   string
	Fset  *token.FileSet
	Types *types.Package
	Files []*ast.File
	Info  *types.Info
	// Fixture marks packages loaded from a test harness: path-scoped
	// analyzers treat them as always in scope.
	Fixture bool
}

// Loader type-checks packages of one module using only the standard
// library: module-internal imports are resolved by parsing and checking
// the package directory recursively (memoized), everything else falls
// back to the source importer, which compiles stdlib dependencies from
// GOROOT. Not safe for concurrent use.
type Loader struct {
	Fset   *token.FileSet
	Root   string // module root directory (contains go.mod)
	Module string // module path from go.mod

	pkgs     map[string]*types.Package
	files    map[string][]*ast.File
	dirs     map[string]string // import path -> directory
	fallback types.ImporterFrom
	info     *types.Info
}

// NewLoader builds a loader for the module rooted at root (a directory
// containing go.mod).
func NewLoader(root string) (*Loader, error) {
	mod, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	fb, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer does not implement ImporterFrom")
	}
	return &Loader{
		Fset:   fset,
		Root:   root,
		Module: mod,
		pkgs:   map[string]*types.Package{},
		files:  map[string][]*ast.File{},
		dirs:   map[string]string{},
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
		fallback: fb,
	}, nil
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		d = parent
	}
}

func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s/go.mod", root)
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom: module-internal paths are
// checked from source under the module root, everything else goes to
// the stdlib source importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.Module), "/")
		p, err := l.check(path, filepath.Join(l.Root, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		l.pkgs[path] = p
		return p, nil
	}
	p, err := l.fallback.ImportFrom(path, dir, mode)
	if err == nil {
		l.pkgs[path] = p
	}
	return p, err
}

// check parses the non-test, non-generated files of dir and
// type-checks them as import path.
func (l *Loader) check(path, dir string) (*types.Package, error) {
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go source files in %s", dir)
	}
	conf := types.Config{Importer: l}
	p, err := conf.Check(path, l.Fset, files, l.info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	l.files[path] = files
	l.dirs[path] = dir
	return p, nil
}

var (
	generatedRx   = regexp.MustCompile(`(?m)^// Code generated .* DO NOT EDIT\.$`)
	buildIgnoreRx = regexp.MustCompile(`(?m)^//go:build ignore\b`)
)

// skipSource reports whether a file is exempt from analysis: generated
// files (the standard "Code generated ... DO NOT EDIT." line before the
// package clause) and files excluded from the build via a
// build-ignore constraint. Only the region before the package clause
// counts, so string literals mentioning either marker cannot hide a
// file from the linter.
func skipSource(src []byte) bool {
	head := src
	if strings.HasPrefix(string(src), "package ") {
		head = nil
	} else if i := strings.Index(string(src), "\npackage "); i >= 0 {
		head = src[:i]
	}
	return generatedRx.Match(head) || buildIgnoreRx.Match(head)
}

func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") ||
			strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, n := range names {
		fn := filepath.Join(dir, n)
		src, err := os.ReadFile(fn)
		if err != nil {
			return nil, err
		}
		if skipSource(src) {
			continue
		}
		f, err := parser.ParseFile(l.Fset, fn, src, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// Load type-checks one module package by import path.
func (l *Loader) Load(path string) (*Package, error) {
	if _, err := l.ImportFrom(path, "", 0); err != nil {
		return nil, err
	}
	return &Package{
		Path:  path,
		Dir:   l.dirs[path],
		Fset:  l.Fset,
		Types: l.pkgs[path],
		Files: l.files[path],
		Info:  l.info,
	}, nil
}

// LoadAll discovers every package under the module root — skipping
// .git, testdata, vendor, and hidden or underscore directories — and
// type-checks each. Packages come back sorted by import path.
func (l *Loader) LoadAll() ([]*Package, error) {
	paths, err := l.discover()
	if err != nil {
		return nil, err
	}
	pkgs := make([]*Package, 0, len(paths))
	for _, p := range paths {
		pkg, err := l.Load(p)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// discover walks the module tree for directories containing eligible Go
// files and returns their import paths, sorted.
func (l *Loader) discover() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(l.Root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.Root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor" || name == "node_modules") {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		for _, e := range ents {
			n := e.Name()
			if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") ||
				strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
				continue
			}
			src, err := os.ReadFile(filepath.Join(p, n))
			if err != nil {
				return err
			}
			if skipSource(src) {
				continue
			}
			rel, err := filepath.Rel(l.Root, p)
			if err != nil {
				return err
			}
			ip := l.Module
			if rel != "." {
				ip = l.Module + "/" + filepath.ToSlash(rel)
			}
			paths = append(paths, ip)
			break
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}
