// Command skylint is the repository's static-analysis gate: it runs the
// thirteen CrowdSky-specific analyzers of internal/lint — the AST
// contract checks (detrange, floateq, errdrop), the flow-sensitive
// concurrency/trace checks (lockorder, wgbalance, goroleak,
// traceschema), the interprocedural hot-path checks (hotalloc, recvcopy,
// purity) and the SSA value-flow checks (nilness, lockset, crowdtaint) —
// and, by default, `go vet`, over the given package patterns. A
// non-empty finding set exits 1, so CI can require it:
//
//	go run ./cmd/skylint ./...
//
// Flags:
//
//	-novet           skip the go vet pass (the analyzers still run)
//	-list            print the analyzers and exit
//	-sarif FILE      additionally write a SARIF 2.1.0 report ("-" = stdout)
//
// Text findings are file:line:col-prefixed, one per line, sorted by
// (file, line, col, analyzer) so CI output is stable and diffable. See
// docs/STATIC_ANALYSIS.md for what each analyzer enforces and the
// `skylint:ignore` suppression comment.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"

	"crowdsky/internal/lint"
)

func main() {
	novet := flag.Bool("novet", false, "skip the go vet pass")
	list := flag.Bool("list", false, "list the analyzers and exit")
	sarifPath := flag.String("sarif", "", "write a SARIF 2.1.0 report to this file (\"-\" for stdout)")
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	failed := false
	if !*novet {
		cmd := exec.Command("go", append([]string{"vet"}, patterns...)...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			if _, ok := err.(*exec.ExitError); !ok {
				fmt.Fprintf(os.Stderr, "skylint: running go vet: %v\n", err)
			}
			failed = true
		}
	}

	findings, err := lint.Run(".", patterns, lint.All())
	if err != nil {
		fmt.Fprintf(os.Stderr, "skylint: %v\n", err)
		os.Exit(2)
	}

	if *sarifPath != "" {
		doc, err := lint.ToSARIF(findings, lint.All())
		if err != nil {
			fmt.Fprintf(os.Stderr, "skylint: encoding SARIF: %v\n", err)
			os.Exit(2)
		}
		if *sarifPath == "-" {
			fmt.Println(string(doc))
		} else if err := os.WriteFile(*sarifPath, append(doc, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "skylint: writing SARIF: %v\n", err)
			os.Exit(2)
		}
	}

	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 || failed {
		os.Exit(1)
	}
}
