package vet

import (
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

// Package is one type-checked package of the module under analysis.
type Package struct {
	// Path is the import path (e.g. "repro/internal/grammar").
	Path string
	// Dir is the absolute directory holding the package sources.
	Dir string
	// Fset is the file set shared by every package of one Load call.
	Fset *token.FileSet
	// Files holds the parsed non-test files of the package.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info carries the type-checker's expression and identifier facts.
	Info *types.Info
}

// Module is a loaded, type-checked module.
type Module struct {
	// Root is the directory containing go.mod.
	Root string
	// ModPath is the module path declared in go.mod.
	ModPath string
	// Fset is shared by all packages.
	Fset *token.FileSet
	// Packages are sorted by import path.
	Packages []*Package
}

// LoadModule locates the module containing dir, parses every package in it
// (excluding _test.go files and testdata directories) and type-checks them
// against each other and the standard library. It depends only on the
// standard library: module-internal imports resolve to the freshly parsed
// packages; everything else is loaded from GOROOT source.
func LoadModule(dir string) (*Module, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}

	ld := &loader{
		fset:    fset,
		root:    root,
		modPath: modPath,
		parsed:  make(map[string]*Package),
		std:     importer.ForCompiler(fset, "source", nil),
		checked: make(map[string]*types.Package),
	}
	for _, d := range dirs {
		if err := ld.parseDir(d); err != nil {
			return nil, err
		}
	}
	paths := make([]string, 0, len(ld.parsed))
	for p := range ld.parsed {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	m := &Module{Root: root, ModPath: modPath, Fset: fset}
	for _, p := range paths {
		if _, err := ld.check(p); err != nil {
			return nil, err
		}
		m.Packages = append(m.Packages, ld.parsed[p])
	}
	return m, nil
}

// findModule walks upward from dir to the first go.mod and returns its
// directory and module path.
func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("vet: %s/go.mod has no module line", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("vet: no go.mod found above %s", abs)
		}
	}
}

// packageDirs lists every directory under root that contains .go files,
// skipping hidden directories, testdata, and nested modules (a directory
// with its own go.mod is not part of this module — the go tool's ./...
// leaves it out too).
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != root {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	return dirs, err
}

// loader parses and type-checks packages on demand, memoising results so each
// package is checked once regardless of import order.
type loader struct {
	fset    *token.FileSet
	root    string
	modPath string
	parsed  map[string]*Package       // import path -> parsed (maybe unchecked) package
	std     types.Importer            // GOROOT source importer for non-module imports
	checked map[string]*types.Package // import path -> type-checked package
	stack   []string                  // import cycle detection
}

// parseDir parses the non-test files of one directory into a Package entry.
func (ld *loader) parseDir(dir string) error {
	rel, err := filepath.Rel(ld.root, dir)
	if err != nil {
		return err
	}
	imp := ld.modPath
	if rel != "." {
		imp = ld.modPath + "/" + filepath.ToSlash(rel)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	pkg := &Package{Path: imp, Dir: dir, Fset: ld.fset}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		// Respect build constraints (//go:build lines and GOOS/GOARCH file
		// suffixes) the same way the toolchain does — otherwise a package
		// with platform-split files (e.g. a unix implementation plus its
		// stub twin) type-checks as a redeclaration.
		if match, err := build.Default.MatchFile(dir, name); err != nil {
			return fmt.Errorf("vet: matching %s: %w", filepath.Join(dir, name), err)
		} else if !match {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("vet: parsing %s: %w", filepath.Join(dir, name), err)
		}
		pkg.Files = append(pkg.Files, f)
	}
	if len(pkg.Files) == 0 {
		return nil
	}
	ld.parsed[imp] = pkg
	return nil
}

// Import implements types.Importer, routing module-internal paths to the
// parsed packages and everything else to the GOROOT source importer.
func (ld *loader) Import(path string) (*types.Package, error) {
	if path == ld.modPath || strings.HasPrefix(path, ld.modPath+"/") {
		return ld.check(path)
	}
	return ld.std.Import(path)
}

// check type-checks one module package (and, recursively, its module
// dependencies).
func (ld *loader) check(path string) (*types.Package, error) {
	if tp, ok := ld.checked[path]; ok {
		return tp, nil
	}
	pkg, ok := ld.parsed[path]
	if !ok {
		return nil, fmt.Errorf("vet: import %q not found in module", path)
	}
	for _, s := range ld.stack {
		if s == path {
			return nil, fmt.Errorf("vet: import cycle through %q", path)
		}
	}
	ld.stack = append(ld.stack, path)
	defer func() { ld.stack = ld.stack[:len(ld.stack)-1] }()

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	cfg := &types.Config{Importer: ld}
	tp, err := cfg.Check(path, ld.fset, pkg.Files, info)
	if err != nil {
		return nil, fmt.Errorf("vet: type-checking %s: %w", path, err)
	}
	pkg.Types = tp
	pkg.Info = info
	ld.checked[path] = tp
	return tp, nil
}
