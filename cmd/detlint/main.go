// Command detlint runs the determinism-linter suite (internal/analysis)
// over Go packages. It is the fourth leg of the repo's correctness
// stack, beside -race, the byte-identity diff gates, and the -compare
// perf gates: wallclock, rawrand, mapiter and rawgo catch
// nondeterminism at the line that introduces it.
//
//	detlint ./...
//
// loads the named packages (default ./...), test files included, via
// `go list` and typechecks them from source. Exit status is nonzero
// when findings exist. Findings are suppressed by
// //detlint:allow <check> annotations (see internal/analysis).
package main

import (
	"fmt"
	"os"

	"fusedcc/internal/analysis"
)

func main() {
	var patterns []string
	for _, a := range os.Args[1:] {
		if a == "-h" || a == "-help" || a == "--help" {
			usage()
			return
		}
		patterns = append(patterns, a)
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	n, err := runStandalone(patterns, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "detlint:", err)
		os.Exit(1)
	}
	if n > 0 {
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: detlint [packages]

Runs the determinism checks over the named packages (default ./...),
test files included. Checks:

`)
	for _, a := range analysis.All() {
		fmt.Fprintf(os.Stderr, "  %-10s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintf(os.Stderr, "\nSuppress a finding with //detlint:allow <check> at line, decl, or file scope.\n")
}
