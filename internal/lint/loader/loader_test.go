package loader

import (
	"os"
	"path/filepath"
	"testing"
)

// writeModule materializes a throwaway module on disk: files maps
// module-relative paths to contents. Returns the module root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for rel, content := range files {
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestLoadBuildTags checks that package enumeration respects build
// constraints: a file excluded by its //go:build line must not reach the
// parser, so analyzers never see code the compiler would not.
func TestLoadBuildTags(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module tagmod\n\ngo 1.21\n",
		"a.go":   "package tagmod\n\nfunc Kept() int { return 1 }\n",
		"b.go":   "//go:build never_enabled\n\npackage tagmod\n\nfunc Dropped() int { return undefinedOnPurpose }\n",
	})
	pkgs, err := Load(dir, []string{"."})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	if len(pkg.Files) != 1 {
		t.Fatalf("loaded %d files, want 1 (build-constrained file must be excluded)", len(pkg.Files))
	}
	if pkg.Pkg.Scope().Lookup("Kept") == nil {
		t.Error("Kept not in package scope")
	}
	if pkg.Pkg.Scope().Lookup("Dropped") != nil {
		t.Error("Dropped leaked into the package scope despite its build tag")
	}
}

// TestLoadVendoredImport checks resolution through a vendor directory:
// with vendor/ present the go toolchain resolves the dependency there
// automatically, and the source importer must type-check the vendored
// sources so the importing package sees real object information.
func TestLoadVendoredImport(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module vendmod\n\ngo 1.21\n\nrequire example.com/dep v0.0.0-00010101000000-000000000000\n",
		"a.go": "package vendmod\n\nimport \"example.com/dep\"\n\n" +
			"func Use() int { return dep.Answer() }\n",
		"vendor/modules.txt": "# example.com/dep v0.0.0-00010101000000-000000000000\n" +
			"## explicit; go 1.21\nexample.com/dep\n",
		"vendor/example.com/dep/dep.go": "package dep\n\nfunc Answer() int { return 42 }\n",
	})
	pkgs, err := Load(dir, []string{"."})
	if err != nil {
		t.Fatalf("Load with vendored dependency: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	use := pkg.Pkg.Scope().Lookup("Use")
	if use == nil {
		t.Fatal("Use not in package scope")
	}
	depPkg := pkg.Pkg.Imports()
	found := false
	for _, p := range depPkg {
		if p.Path() == "example.com/dep" {
			found = true
			if p.Scope().Lookup("Answer") == nil {
				t.Error("vendored dep type-checked without its exported Answer")
			}
		}
	}
	if !found {
		t.Errorf("example.com/dep not among imports %v", depPkg)
	}
}

// TestLoadSharesCheckedPackages checks that each package is type-checked
// once: when one matched package imports another, the importer sees the
// very *types.Package the loader returned for the imported one, so type
// identity holds across packages.
func TestLoadSharesCheckedPackages(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module sharemod\n\ngo 1.21\n",
		"a/a.go": "package a\n\ntype T struct{}\n",
		"b/b.go": "package b\n\nimport \"sharemod/a\"\n\nvar V a.T\n",
	})
	pkgs, err := Load(dir, []string{"./..."})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.PkgPath] = p
	}
	a, b := byPath["sharemod/a"], byPath["sharemod/b"]
	if a == nil || b == nil {
		t.Fatalf("loaded %v, want sharemod/a and sharemod/b", byPath)
	}
	imports := b.Pkg.Imports()
	if len(imports) != 1 || imports[0] != a.Pkg {
		t.Fatalf("b imports %v, want the loaded *types.Package of sharemod/a (%p)", imports, a.Pkg)
	}
}
