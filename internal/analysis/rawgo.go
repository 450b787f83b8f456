package analysis

import (
	"go/ast"
)

// Rawgo forbids bare `go` statements in the DES engine package and in
// every package that consumes it. A goroutine the engine doesn't know
// about runs on the host scheduler's clock: it can observe or mutate
// simulation state at a host-dependent instant, which is exactly the
// nondeterminism the (time, seq) event order exists to exclude.
// Simulated concurrency goes through Engine.Go proc registration, and
// the engine itself runs every simulation on its caller's goroutine;
// genuine host-side concurrency (worker pools around whole simulations,
// -race stress tests, test harnesses that watch a run from outside)
// annotates with //detlint:allow rawgo.
var Rawgo = &Analyzer{
	Name: "rawgo",
	Doc: "forbid bare go statements in the sim package and its consumers; " +
		"spawn simulated processes with Engine.Go",
	Run: runRawgo,
}

func runRawgo(pass *Pass) error {
	checked := IsSimPackage(pass.Pkg.Path())
	for _, imp := range pass.Pkg.Imports() {
		if IsSimPackage(imp.Path()) {
			checked = true
			break
		}
	}
	if !checked {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(), "rawgo: bare go statement in a sim package or consumer bypasses Engine.Go proc registration; annotate //detlint:allow rawgo if this is host-side concurrency")
			}
			return true
		})
	}
	return nil
}
