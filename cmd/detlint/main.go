// Command detlint runs the determinism-linter suite (internal/analysis)
// over Go packages. It is the fourth leg of the repo's correctness
// stack, beside -race, the byte-identity diff gates, and the -compare
// perf gates: wallclock, rawrand, mapiter and rawgo catch
// nondeterminism at the line that introduces it.
//
// Two modes share the analyzers:
//
//	detlint ./...                      standalone: loads packages (tests
//	                                   included) via `go list` and
//	                                   typechecks them from source
//	go vet -vettool=$(pwd)/detlint ./...   vet protocol: cmd/go hands the
//	                                   tool one *.cfg unit at a time with
//	                                   prebuilt export data
//
// Exit status is nonzero when findings exist. Findings are suppressed
// by //detlint:allow <check> annotations (see internal/analysis).
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"fusedcc/internal/analysis"
)

func main() {
	args := os.Args[1:]
	jsonOut := false
	var rest []string
	for _, a := range args {
		switch {
		case a == "-V=full" || a == "--V=full":
			printVersion()
			return
		case a == "-json" || a == "--json":
			jsonOut = true
		case a == "-h" || a == "-help" || a == "--help":
			usage()
			return
		case strings.HasPrefix(a, "-flags"):
			// cmd/go probes supported flags before forwarding user vet
			// flags; we expose only -json.
			fmt.Println(`[{"Name":"json","Bool":true,"Usage":"emit JSON diagnostics"}]`)
			return
		default:
			rest = append(rest, a)
		}
	}

	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		unitcheckerMain(rest[0], jsonOut)
		return
	}

	if len(rest) == 0 {
		rest = []string{"./..."}
	}
	standaloneMain(rest, jsonOut)
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: detlint [-json] [packages]

Runs the determinism checks over the named packages (default ./...),
test files included. Checks:

`)
	for _, a := range analysis.All() {
		fmt.Fprintf(os.Stderr, "  %-10s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintf(os.Stderr, "\nSuppress a finding with //detlint:allow <check> at line, decl, or file scope.\nAlso usable as a vet tool: go vet -vettool=/path/to/detlint ./...\n")
}

// printVersion implements the `-V=full` probe cmd/go uses to fingerprint
// vet tools for build caching: the tool's content hash is its version.
func printVersion() {
	progname := filepath.Base(os.Args[0])
	exe, err := os.Executable()
	if err != nil {
		fmt.Printf("%s version devel\n", progname)
		return
	}
	f, err := os.Open(exe)
	if err != nil {
		fmt.Printf("%s version devel\n", progname)
		return
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		fmt.Printf("%s version devel\n", progname)
		return
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", progname, string(h.Sum(nil)))
}

// jsonDiag is the emitted shape of one finding.
type jsonDiag struct {
	Pos     string `json:"posn"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

func emitJSON(w io.Writer, diags []jsonDiag) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "\t")
	if diags == nil {
		diags = []jsonDiag{}
	}
	if err := enc.Encode(diags); err != nil {
		fmt.Fprintln(os.Stderr, "detlint:", err)
		os.Exit(1)
	}
}
