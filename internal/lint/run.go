package lint

import (
	"fmt"
	"path/filepath"
	"sort"

	"crowdsky/internal/lint/analysis"
	"crowdsky/internal/lint/loader"
)

// Finding is one diagnostic with its resolved source position.
type Finding struct {
	File     string
	Line     int
	Col      int
	Analyzer string
	Message  string
}

// Position renders the finding's location as file:line:col.
func (f Finding) Position() string {
	return fmt.Sprintf("%s:%d:%d", f.File, f.Line, f.Col)
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Position(), f.Analyzer, f.Message)
}

// SortFindings orders findings by (file, line, col, analyzer, message) —
// numerically on line and column, not lexically on the rendered position —
// so skylint output is byte-stable and diffable across runs and machines.
func SortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// runOne applies one analyzer's Run phase to one package, appending
// surviving findings through sink.
func runOne(pkg *loader.Package, a *analysis.Analyzer, prog *analysis.Program, sink *[]Finding) error {
	pass := &analysis.Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Pkg,
		PkgPath:  pkg.PkgPath,
		Info:     pkg.Info,
	}
	pass.BuildIgnores()
	pass.SetProgram(prog)
	pass.SetReporter(func(d analysis.Diagnostic) {
		pos := pkg.Fset.Position(d.Pos)
		*sink = append(*sink, Finding{
			File:     pos.Filename,
			Line:     pos.Line,
			Col:      pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	})
	if err := a.Run(pass); err != nil {
		return fmt.Errorf("lint: analyzer %s on %s: %w", a.Name, pkg.PkgPath, err)
	}
	return nil
}

// finish runs the Finish phase of every analyzer that has one. Diagnostics
// reported from Finish flow through the passes the facts were recorded
// under, which the reporters installed by runOne still serve.
func finish(analyzers []*analysis.Analyzer, prog *analysis.Program) error {
	for _, a := range analyzers {
		if a.Finish == nil {
			continue
		}
		if err := a.Finish(prog); err != nil {
			return fmt.Errorf("lint: analyzer %s finish: %w", a.Name, err)
		}
	}
	return nil
}

// Run loads the packages matching patterns under dir and runs every
// analyzer over each (Run per package, then one Finish per analyzer over
// the whole program), returning all findings sorted by (file, line, col,
// analyzer). File names are reported relative to dir where possible.
func Run(dir string, patterns []string, analyzers []*analysis.Analyzer) ([]Finding, error) {
	pkgs, err := loader.Load(dir, patterns)
	if err != nil {
		return nil, err
	}
	var all []Finding
	prog := analysis.NewProgram()
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if err := runOne(pkg, a, prog, &all); err != nil {
				return nil, err
			}
		}
	}
	if err := finish(analyzers, prog); err != nil {
		return nil, err
	}
	absDir, err := filepath.Abs(dir)
	if err == nil {
		for i := range all {
			if rel, rerr := filepath.Rel(absDir, all[i].File); rerr == nil && !filepath.IsAbs(rel) && rel[0] != '.' {
				// Forward slashes regardless of platform, so SARIF logs
				// recorded under one checkout match any other (different
				// absolute root, different OS).
				all[i].File = filepath.ToSlash(rel)
			}
		}
	}
	SortFindings(all)
	return all, nil
}
