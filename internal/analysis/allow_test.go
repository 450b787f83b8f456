package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func TestParseAllow(t *testing.T) {
	cases := []struct {
		text   string
		checks []string
		ok     bool
	}{
		{"//detlint:allow wallclock", []string{"wallclock"}, true},
		{"//detlint:allow wallclock, rawgo", []string{"wallclock", "rawgo"}, true},
		{"//detlint:allow wallclock rawgo", []string{"wallclock", "rawgo"}, true},
		{"//detlint:allow wallclock -- host timing", []string{"wallclock"}, true},
		{"//detlint:allow rawgo // want `x`", []string{"rawgo"}, true},
		{"//detlint:allow", nil, true},
		{"//detlint:allowance x", nil, false},
		{"//detlint:deny wallclock", nil, false},
		{"// ordinary comment", nil, false},
	}
	for _, tc := range cases {
		checks, ok := parseAllow(tc.text)
		if ok != tc.ok {
			t.Errorf("parseAllow(%q) ok = %v, want %v", tc.text, ok, tc.ok)
			continue
		}
		if len(checks) != len(tc.checks) {
			t.Errorf("parseAllow(%q) = %v, want %v", tc.text, checks, tc.checks)
			continue
		}
		for i := range checks {
			if checks[i] != tc.checks[i] {
				t.Errorf("parseAllow(%q)[%d] = %q, want %q", tc.text, i, checks[i], tc.checks[i])
			}
		}
	}
}

const allowSrc = `// Package p doc.
//
//detlint:allow rawrand
package p

// decl covers the whole function body.
//
//detlint:allow wallclock
func decl() {
	alpha()
	beta()
}

func line() {
	alpha() //detlint:allow mapiter
	//detlint:allow rawgo
	beta()
	gamma()
}

//detlint:allow nosuchcheck
func oops() {}

func alpha() {}
func beta()  {}
func gamma() {}
`

// findPos returns the token.Pos of the n-th occurrence of substr.
func findPos(t *testing.T, file *token.File, src, substr string, n int) token.Pos {
	t.Helper()
	off := -1
	for i := 0; i <= n; i++ {
		next := strings.Index(src[off+1:], substr)
		if next < 0 {
			t.Fatalf("occurrence %d of %q not found", n, substr)
		}
		off += 1 + next
	}
	return file.Pos(off)
}

func TestAllowIndexScopes(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", allowSrc, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	ix, diags := BuildAllowIndex(fset, []*ast.File{f}, known)

	if len(diags) != 1 {
		t.Fatalf("diagnostics = %d, want 1 (the unknown check)", len(diags))
	}
	if !strings.Contains(diags[0].Message, `unknown check "nosuchcheck"`) {
		t.Errorf("unknown-check message = %q", diags[0].Message)
	}
	if got := fset.Position(diags[0].Pos).Line; got != 21 {
		t.Errorf("unknown-check diagnostic at line %d, want 21", got)
	}

	tf := fset.File(f.Pos())
	at := func(substr string, n int) token.Pos { return findPos(t, tf, allowSrc, substr, n) }

	// File scope: the package-doc annotation covers every position.
	for _, probe := range []string{"alpha()", "beta()", "gamma()"} {
		if !ix.Allowed("rawrand", at(probe, 0)) {
			t.Errorf("file-scope rawrand does not cover %q", probe)
		}
	}

	// Decl scope: wallclock is allowed inside decl()'s body only.
	if !ix.Allowed("wallclock", at("alpha()", 0)) {
		t.Error("decl-scope wallclock does not cover decl()'s body")
	}
	if ix.Allowed("wallclock", at("alpha()", 1)) {
		t.Error("decl-scope wallclock leaked into line()")
	}

	// Line scope: trailing form covers its own line; standalone form
	// covers the next line; neither covers anything further down.
	if !ix.Allowed("mapiter", at("alpha()", 1)) {
		t.Error("trailing line-scope mapiter does not cover its own line")
	}
	if !ix.Allowed("rawgo", at("beta()", 1)) {
		t.Error("standalone line-scope rawgo does not cover the next line")
	}
	if ix.Allowed("mapiter", at("beta()", 1)) || ix.Allowed("rawgo", at("gamma()", 0)) {
		t.Error("line-scope annotation leaked past its line")
	}

	// The unknown check suppresses nothing anywhere.
	if ix.Allowed("nosuchcheck", at("alpha()", 0)) {
		t.Error("unknown check must not populate the index")
	}
}
