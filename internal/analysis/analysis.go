// Package analysis is the repo's determinism-linter suite: four static
// checks (wallclock, rawrand, mapiter, rawgo) that enforce the
// simulator's byte-identity invariants at the line that would break
// them, instead of waiting for the CI worker diff gates to catch the
// corruption downstream.
//
// The vocabulary (Analyzer, Pass, Diagnostic, an analysistest-style
// golden harness, a `go vet -vettool` driver) deliberately mirrors
// golang.org/x/tools/go/analysis, but is reimplemented here on the
// standard library alone: the module builds offline with a
// zero-dependency go.mod, and the subset these checkers need — no
// facts, no SSA — is small.
//
// Findings are suppressed by `//detlint:allow <check>` annotations at
// line, declaration, or file scope; see allow.go.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named determinism check.
type Analyzer struct {
	// Name identifies the check in diagnostics and in
	// //detlint:allow annotations.
	Name string
	// Doc is a one-paragraph description of what the check enforces.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass) error
}

// Diagnostic is one finding, positioned in the analyzed package.
type Diagnostic struct {
	Pos     token.Pos
	Check   string
	Message string
}

// Pass carries one analyzer's view of one typechecked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Allow suppresses findings covered by //detlint:allow
	// annotations; nil means nothing is suppressed.
	Allow *AllowIndex

	diags *[]Diagnostic
}

// Reportf records a finding at pos unless an allow annotation covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.Allow != nil && p.Allow.Allowed(p.Analyzer.Name, pos) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{Pos: pos, Check: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// All returns the full determinism suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Wallclock, Rawrand, Mapiter, Rawgo}
}

// Check runs the given analyzers over one typechecked package and
// returns every finding plus annotation-syntax errors (unknown check
// names), sorted by position. The allow index is built once and shared
// by all analyzers, so a bad annotation is reported exactly once.
func Check(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Diagnostic, error) {
	known := make(map[string]bool, len(analyzers))
	for _, a := range All() {
		// Validate annotations against the whole suite, not just the
		// analyzers running now: a file allowing `mapiter` must not be
		// flagged as unknown when only `wallclock` runs.
		known[a.Name] = true
	}
	allow, diags := BuildAllowIndex(fset, files, known)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Allow:     allow,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Check < diags[j].Check
	})
	return diags, nil
}

// pathElem reports whether the final element of an import path is elem,
// so both the real module paths (fusedcc/internal/sim) and the
// analysistest fixture paths (sim) qualify.
func pathElem(path, elem string) bool {
	return path == elem || strings.HasSuffix(path, "/"+elem)
}

// IsSimPackage reports whether path names the DES engine package.
func IsSimPackage(path string) bool { return pathElem(path, "sim") }

// IsWorkloadPackage reports whether path names the centralized
// seeded-RNG package, the only one allowed to import math/rand.
func IsWorkloadPackage(path string) bool { return pathElem(path, "workload") }

// funcFor resolves a call's callee to its declared *types.Func, or nil
// for builtins, conversions, and locally-defined function values.
func funcFor(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	}
	return nil
}
