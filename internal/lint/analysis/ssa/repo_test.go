package ssa

import (
	"go/ast"
	"testing"

	"crowdsky/internal/lint/loader"
)

// TestRepoWideBuild builds SSA for every function and function literal
// in the repository and asserts the verifier invariants on each — the
// acceptance gate for the construction: defs dominate uses, phi arity
// matches predecessor counts, no values in unreachable blocks.
func TestRepoWideBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole repository")
	}
	pkgs, err := loader.Load("../../../..", []string{"./..."})
	if err != nil {
		t.Fatalf("loading repository: %v", err)
	}
	funcs, lits := 0, 0
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				f := BuildFunc(fd, pkg.Info)
				if err := f.Verify(); err != nil {
					t.Errorf("%s: %s: %v", pkg.PkgPath, fd.Name.Name, err)
				}
				funcs++
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					lit, ok := n.(*ast.FuncLit)
					if !ok {
						return true
					}
					lf := BuildLit(lit, pkg.Info)
					if err := lf.Verify(); err != nil {
						t.Errorf("%s: literal at %s: %v",
							pkg.PkgPath, pkg.Fset.Position(lit.Pos()), err)
					}
					lits++
					return true
				})
			}
		}
	}
	if funcs == 0 {
		t.Fatal("no functions built; loader returned nothing useful")
	}
	t.Logf("verified %d functions and %d literals across %d packages", funcs, lits, len(pkgs))
}
