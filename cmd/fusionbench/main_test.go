package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fusedcc"
	"fusedcc/internal/experiments"
	"fusedcc/internal/sim"
)

// benchResults builds a tiny result set with one row per duration.
func benchResults(fused ...sim.Duration) []*fusedcc.ExperimentResult {
	res := &experiments.Result{ID: "Pipeline", Title: "test sweep"}
	for i, d := range fused {
		res.Rows = append(res.Rows, experiments.Row{
			Label:    "row" + string(rune('A'+i)),
			Baseline: 2 * d,
			Fused:    d,
		})
	}
	return []*fusedcc.ExperimentResult{res}
}

func TestBaselineRoundTripSchema2(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	header := jsonHeader{Schema: 2, Quick: true, Parallel: 8, Host: jsonHost{WallMs: 1234, GoMaxProcs: 8, NumCPU: 8}}
	if err := writeJSON(path, header, benchResults(100, 200)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	base, err := parseBaseline(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != 1 || len(base[0].Rows) != 2 || base[0].Rows[0].FusedNs != 100 {
		t.Fatalf("round trip mangled results: %+v", base)
	}
	// The header must carry the host facts verbatim.
	var file jsonFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if file.Header != header {
		t.Fatalf("header = %+v, want %+v", file.Header, header)
	}
}

// TestParseBaselineLegacyArray checks that the gate fails closed on
// the legacy bare results array: every baseline must be schema 2.
func TestParseBaselineLegacyArray(t *testing.T) {
	legacy, err := json.Marshal(encodeResults(benchResults(100)))
	if err != nil {
		t.Fatal(err)
	}
	if base, err := parseBaseline(legacy); err == nil {
		t.Fatalf("legacy bare array accepted as a baseline: %+v", base)
	}
	// A header without the schema-2 marker fails closed too.
	unversioned, err := json.Marshal(jsonFile{Results: encodeResults(benchResults(100))})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parseBaseline(unversioned); err == nil {
		t.Fatal("baseline without schema 2 accepted")
	}
}

// TestCompareBaselineGate checks the perf gate: equal results pass, a
// >tolerance slowdown fails, a row that measured 0 ns against a timed
// baseline row fails, and a result set matching no baseline rows fails
// closed.
func TestCompareBaselineGate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v2.json")
	if err := writeJSON(path, jsonHeader{Schema: 2}, benchResults(100, 200)); err != nil {
		t.Fatal(err)
	}
	if err := compareBaseline(path, 0.10, benchResults(100, 200)); err != nil {
		t.Errorf("identical results failed the gate: %v", err)
	}
	err := compareBaseline(path, 0.10, benchResults(150, 200))
	if err == nil || !strings.Contains(err.Error(), "regression") {
		t.Errorf("50%% slowdown passed the gate (err %v)", err)
	}
	// An arm that served nothing reads 0 ns: not a 100% win.
	err = compareBaseline(path, 0.10, benchResults(100, 0))
	if err == nil || !strings.Contains(err.Error(), "rowB: 0 ns") {
		t.Errorf("zero-time row passed the gate (err %v)", err)
	}
	// Fail closed when labels drift and nothing matches.
	drifted := benchResults(100)
	drifted[0].ID = "Renamed"
	if err := compareBaseline(path, 0.10, drifted); err == nil {
		t.Error("gate passed with zero matched rows")
	}
}

func TestParseShape(t *testing.T) {
	nodes, gpus, err := parseShape("4x8")
	if err != nil || nodes != 4 || gpus != 8 {
		t.Errorf("parseShape(4x8) = %d, %d, %v", nodes, gpus, err)
	}
	// A count past the int range must fail, not saturate: a saturated
	// node count overflows the device count downstream.
	for _, s := range []string{"4x4x2", "x4", "4x", "-1x4", "99999999999999999999x4", "4x99999999999999999999"} {
		if nodes, gpus, err := parseShape(s); err == nil {
			t.Errorf("parseShape(%q) = %d, %d, want an error", s, nodes, gpus)
		}
	}
}

func TestCheckTolerance(t *testing.T) {
	for _, tol := range []float64{0, 0.10, 2} {
		if err := checkTolerance(tol); err != nil {
			t.Errorf("checkTolerance(%g) = %v", tol, err)
		}
	}
	// NaN fails no row, so it would turn the gate off.
	for _, tol := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.1} {
		err := checkTolerance(tol)
		if err == nil || !strings.Contains(err.Error(), "-tolerance") {
			t.Errorf("checkTolerance(%g) = %v, want an error naming -tolerance", tol, err)
		}
	}
}
