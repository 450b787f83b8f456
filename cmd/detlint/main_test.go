package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// probeModule is a throwaway module with one finding in each kind of
// file the loader reads, plus one annotated line that must stay quiet.
var probeModule = []struct{ name, src string }{
	{"go.mod", "module probe\n\ngo 1.24\n"},
	{"probe.go", `package probe

import "time"

func Stamp() int64 { return time.Now().UnixNano() }

func Host() int64 {
	//detlint:allow wallclock -- host timing
	return time.Now().UnixNano()
}
`},
	{"probe_internal_test.go", `package probe

import (
	"math/rand"
	"testing"
)

func TestDraw(t *testing.T) { _ = rand.Int() }
`},
	{"probe_ext_test.go", `package probe_test

import (
	"testing"
	"time"
)

func TestElapsed(t *testing.T) { _ = time.Since(time.Time{}) }
`},
}

// TestRunStandaloneReportsEachFileKind checks that the loader lints a
// package's non-test files, its in-package tests and its external tests,
// reports each finding once, and honors //detlint:allow.
func TestRunStandaloneReportsEachFileKind(t *testing.T) {
	dir := t.TempDir()
	for _, f := range probeModule {
		if err := os.WriteFile(filepath.Join(dir, f.name), []byte(f.src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Chdir(dir)

	var out strings.Builder
	n, err := runStandalone([]string{"./..."}, &out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	want := []string{
		"/probe.go:5:29: [wallclock] wallclock: time.Now",
		"/probe_ext_test.go:8:38: [wallclock] wallclock: time.Since",
		"/probe_internal_test.go:4:2: [rawrand] rawrand: import of math/rand",
	}
	if n != len(want) || len(lines) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%s", n, len(want), out.String())
	}
	for i, w := range want {
		if !strings.Contains(lines[i], w) {
			t.Errorf("finding %d = %q, want it to contain %q", i, lines[i], w)
		}
	}
}
