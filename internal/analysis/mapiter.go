package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// Mapiter flags `range` over a map whose body reaches an
// order-dependent sink: appending to a slice that outlives the loop
// (report rows), posting simulation events, test failure/log
// sequencing, or printed output. Go randomizes map iteration order, so
// any of these makes output vary run to run. The fix is the sorted-keys
// idiom — collect keys, sort, iterate the slice — which the analyzer
// recognizes: a loop whose entire body appends only the key to a slice
// is the idiom's first half and is never flagged.
var Mapiter = &Analyzer{
	Name: "mapiter",
	Doc: "flag map iteration whose body writes an order-dependent sink " +
		"(outer append, sim event posting, t.Error ordering, printed output)",
	Run: runMapiter,
}

// simSinks are the side-effecting engine entry points: reaching one of
// these in map order perturbs the (time, seq) event ordering that
// byte-identity rests on. Pure accessors (Now, Sub, Engine) are not
// sinks.
var simSinks = map[string]bool{
	"Go": true, "At": true, "After": true,
	"Broadcast": true, "Signal": true, "Add": true, "Set": true,
}

// testSinks order-sensitively accumulate into the test log.
var testSinks = map[string]bool{
	"Error": true, "Errorf": true, "Fatal": true, "Fatalf": true,
	"Log": true, "Logf": true, "Skip": true, "Skipf": true,
	"Fail": true, "FailNow": true,
}

func runMapiter(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypesInfo.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, ok := t.Underlying().(*types.Map); !ok {
				return true
			}
			if isKeyCollection(pass.TypesInfo, rs) {
				return true
			}
			if what := orderSink(pass, rs); what != "" {
				pass.Reportf(rs.For, "mapiter: map iteration order reaches %s; iterate over sorted keys instead", what)
			}
			return true
		})
	}
	return nil
}

// orderSink scans the loop body (including nested statements) for the
// first order-dependent sink and describes it, or returns "".
func orderSink(pass *Pass, rs *ast.RangeStmt) string {
	info := pass.TypesInfo
	var what string
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if what != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			what = callSink(info, n)
		case *ast.AssignStmt:
			what = appendSink(info, n, rs)
		}
		return what == ""
	})
	return what
}

func callSink(info *types.Info, call *ast.CallExpr) string {
	fn := funcFor(info, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	name := fn.Name()
	switch path := fn.Pkg().Path(); {
	case path == "testing" && testSinks[name]:
		return fmt.Sprintf("test failure/log ordering (testing %s)", name)
	case path == "fmt" && (strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")):
		return fmt.Sprintf("printed output (fmt.%s)", name)
	case IsSimPackage(path) && simSinks[name]:
		return fmt.Sprintf("simulation event posting (sim %s)", name)
	case pathElem(path, "graph") && isMutationVerb(name):
		// Graph construction order decides node ids, which decide the
		// (time, seq) execution order downstream.
		return fmt.Sprintf("graph mutation (graph %s)", name)
	}
	return ""
}

func isMutationVerb(name string) bool {
	for _, prefix := range []string{"Add", "Set", "Remove", "New"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// appendSink flags `s = append(s, ...)` where s outlives the loop: the
// slice accumulates in map order. Fields of outer values (r.Rows = ...)
// count too. Short declarations create per-iteration variables and are
// fine.
func appendSink(info *types.Info, as *ast.AssignStmt, rs *ast.RangeStmt) string {
	if as.Tok.String() != "=" {
		return ""
	}
	for i, rhs := range as.Rhs {
		if !isAppendCall(info, rhs) || i >= len(as.Lhs) {
			continue
		}
		switch lhs := ast.Unparen(as.Lhs[i]).(type) {
		case *ast.Ident:
			obj := info.Uses[lhs]
			if obj == nil {
				continue
			}
			if obj.Pos() < rs.Pos() || obj.Pos() > rs.End() {
				return fmt.Sprintf("an append to %q, which outlives the loop", lhs.Name)
			}
		case *ast.SelectorExpr:
			return fmt.Sprintf("an append to field %q of a value that outlives the loop", lhs.Sel.Name)
		}
	}
	return ""
}

func isAppendCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin && id.Name == "append"
}

// isKeyCollection recognizes the first half of the sorted-keys idiom:
// a body that is exactly `keys = append(keys, k)` for the range key k
// and a plain local slice keys.
func isKeyCollection(info *types.Info, rs *ast.RangeStmt) bool {
	if len(rs.Body.List) != 1 {
		return false
	}
	as, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || as.Tok.String() != "=" || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok || !isAppendCall(info, as.Rhs[0]) || len(call.Args) != 2 {
		return false
	}
	lhs, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
	if !ok {
		return false
	}
	slice, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok || info.Uses[slice] == nil || info.Uses[slice] != info.Uses[lhs] {
		return false
	}
	key, ok := rs.Key.(*ast.Ident)
	if !ok {
		return false
	}
	arg, ok := ast.Unparen(call.Args[1]).(*ast.Ident)
	if !ok {
		return false
	}
	keyObj := info.Defs[key]
	if keyObj == nil {
		keyObj = info.Uses[key]
	}
	return keyObj != nil && info.Uses[arg] == keyObj
}
