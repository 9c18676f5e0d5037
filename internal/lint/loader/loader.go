// Package loader loads and type-checks Go packages for the skylint
// analyzers without golang.org/x/tools. One `go list -deps -export -json`
// enumerates the packages and their dependencies, dependencies first (the
// toolchain is the one dependency the repository already requires).
// Every non-standard package is then type-checked once from source, in
// that order, and served to its importers from the already-checked set;
// the standard library is read from the compiler export data that
// `go list -export` names. Everything runs offline.
package loader

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	PkgPath string
	Name    string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Pkg     *types.Package
	Info    *types.Info
}

// listEntry is the subset of `go list -json` output the loader consumes.
type listEntry struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	ImportMap  map[string]string // source import path -> ImportPath, for vendored imports
	Export     string            // compiler export data; read for standard packages only
	Standard   bool
	DepOnly    bool // listed only as a dependency of a matched package
}

// Load enumerates the packages matching patterns (e.g. "./...") relative
// to dir, with their dependencies, and type-checks them. It returns the
// matched packages in dependency order. All packages share one FileSet.
func Load(dir string, patterns []string) ([]*Package, error) {
	entries, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	return check(entries)
}

// LoadFixture loads the named subdirectories of root as a fixture: every
// .go file directly inside each subdirectory forms a package whose import
// path is the subdirectory name, and the packages may import each other
// by that name ("hot" imports "kernel"). Fixtures live outside the module
// package graph, so their standard-library imports are listed separately
// and the fixture packages are ordered after their local dependencies.
// All packages share one FileSet, so cross-package positions stay
// comparable — the property the interprocedural analyzers' tests rely on.
func LoadFixture(root string, dirs []string) ([]*Package, error) {
	local := make(map[string]*listEntry, len(dirs))
	deps := make(map[string][]string, len(dirs))
	scan := token.NewFileSet() // imports-only parse, discarded
	for _, d := range dirs {
		e := &listEntry{ImportPath: d, Dir: filepath.Join(root, d)}
		matches, err := filepath.Glob(filepath.Join(e.Dir, "*.go"))
		if err != nil {
			return nil, err
		}
		if len(matches) == 0 {
			return nil, fmt.Errorf("loader: no .go files in %s", e.Dir)
		}
		for _, f := range matches {
			e.GoFiles = append(e.GoFiles, filepath.Base(f))
			parsed, err := parser.ParseFile(scan, f, nil, parser.ImportsOnly)
			if err != nil {
				return nil, fmt.Errorf("loader: %v", err)
			}
			for _, imp := range parsed.Imports {
				if path, err := strconv.Unquote(imp.Path.Value); err == nil {
					deps[d] = append(deps[d], path)
				}
			}
		}
		local[d] = e
	}
	var entries []listEntry
	var external []string
	seen := make(map[string]bool)
	for _, d := range dirs {
		for _, path := range deps[d] {
			if local[path] == nil && !seen[path] {
				seen[path] = true
				external = append(external, path)
			}
		}
	}
	if len(external) > 0 {
		listed, err := goList(root, external)
		if err != nil {
			return nil, err
		}
		for _, e := range listed {
			e.DepOnly = true
			entries = append(entries, e)
		}
	}
	// Order the fixture packages so each follows its local dependencies,
	// as `go list -deps` orders real ones; ties keep the caller's order.
	const (
		unvisited = iota
		visiting
		done
	)
	state := make(map[string]int, len(dirs))
	var visit func(string) error
	visit = func(d string) error {
		e := local[d]
		if e == nil || state[d] == done {
			return nil
		}
		if state[d] == visiting {
			return fmt.Errorf("loader: fixture import cycle through %q", d)
		}
		state[d] = visiting
		for _, dep := range deps[d] {
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[d] = done
		entries = append(entries, *e)
		return nil
	}
	for _, d := range dirs {
		if err := visit(d); err != nil {
			return nil, err
		}
	}
	return check(entries)
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// check type-checks entries, which must list every package after its
// dependencies, and returns the non-standard ones that were not listed
// only as dependencies. Each non-standard package is checked once from
// source and its *types.Package is the one every importer sees; standard
// packages are read from their export data on first import.
func check(entries []listEntry) ([]*Package, error) {
	fset := token.NewFileSet()
	exports := make(map[string]string)
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file := exports[path]
		if file == "" {
			return nil, fmt.Errorf("loader: no export data for %q", path)
		}
		return os.Open(file)
	})
	checked := make(map[string]*types.Package)
	var out []*Package
	for _, e := range entries {
		if e.Standard {
			exports[e.ImportPath] = e.Export
			continue
		}
		if len(e.CgoFiles) > 0 {
			return nil, fmt.Errorf("loader: package %s uses cgo, which skylint does not support", e.ImportPath)
		}
		imp := importerFunc(func(path string) (*types.Package, error) {
			if mapped, ok := e.ImportMap[path]; ok {
				path = mapped
			}
			if pkg := checked[path]; pkg != nil {
				return pkg, nil
			}
			return std.Import(path)
		})
		pkg, err := typecheck(fset, imp, e)
		if err != nil {
			return nil, err
		}
		checked[e.ImportPath] = pkg.Pkg
		if !e.DepOnly {
			out = append(out, pkg)
		}
	}
	return out, nil
}

func goList(dir string, patterns []string) ([]listEntry, error) {
	args := append([]string{"list", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,CgoFiles,ImportMap,Export,Standard,DepOnly"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("loader: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	dec := json.NewDecoder(&stdout)
	var entries []listEntry
	for dec.More() {
		var e listEntry
		if err := dec.Decode(&e); err != nil {
			return nil, fmt.Errorf("loader: decoding go list output: %v", err)
		}
		entries = append(entries, e)
	}
	return entries, nil
}

func typecheck(fset *token.FileSet, imp types.Importer, e listEntry) (*Package, error) {
	var asts []*ast.File
	for _, f := range e.GoFiles {
		parsed, err := parser.ParseFile(fset, filepath.Join(e.Dir, f), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("loader: %v", err)
		}
		asts = append(asts, parsed)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var typeErrs []string
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			typeErrs = append(typeErrs, err.Error())
		},
	}
	tpkg, err := conf.Check(e.ImportPath, fset, asts, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("loader: type errors in %s:\n  %s", e.ImportPath, strings.Join(typeErrs, "\n  "))
	}
	if err != nil {
		return nil, fmt.Errorf("loader: type-checking %s: %v", e.ImportPath, err)
	}
	return &Package{PkgPath: e.ImportPath, Name: tpkg.Name(), Dir: e.Dir, Fset: fset, Files: asts, Pkg: tpkg, Info: info}, nil
}
