package analysis_test

import (
	"testing"

	"fusedcc/internal/analysis"
	"fusedcc/internal/analysis/analysistest"
)

func TestWallclock(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Wallclock, "wallclock")
}

func TestRawrand(t *testing.T) {
	// The workload fixture is the allowlisted package: its math/rand
	// import must produce no findings. The chaos fixture pins the rule
	// for fault injection: seeded fault draws go through workload.Rand
	// like everything else.
	analysistest.Run(t, "testdata", analysis.Rawrand, "rawrand", "workload", "chaos")
}

func TestMapiter(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Mapiter, "mapiter")
}

func TestRawgo(t *testing.T) {
	// rawgo/sim is a package named sim: the engine itself is checked
	// too, not only its consumers.
	analysistest.Run(t, "testdata", analysis.Rawgo, "rawgo", "rawgo/pure", "rawgo/sim")
}

// TestAllowScopes drives the annotation parser end to end through the
// harness: line, decl, and file scope plus the unknown-check,
// empty-list, and unknown-directive error paths.
func TestAllowScopes(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Wallclock, "allow")
}
