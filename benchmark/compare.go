package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json -compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// loadBenchmarkFile reads BENCHMARK.json from the working directory or
// its parent (the repository root when run from benchmark/).
func loadBenchmarkFile() (*benchmarkFile, error) {
	var lastErr error
	for _, path := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		data, err := os.ReadFile(path)
		if err != nil {
			lastErr = err
			continue
		}
		bf := &benchmarkFile{}
		if err := json.Unmarshal(data, bf); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return bf, nil
	}
	return nil, lastErr
}

// compareFiles prints one row per workload and metric of two -json
// result files and reports whether they agree: host end-to-end metrics
// may not be worse in b by more than their BENCHMARK.json bound, and
// simulated results must be identical. A workload or metric present on
// one side only is a disagreement.
func compareFiles(aPath, bPath string, out io.Writer) (bool, error) {
	bf, err := loadBenchmarkFile()
	if err != nil {
		return false, err
	}
	a, err := readResults(aPath)
	if err != nil {
		return false, err
	}
	b, err := readResults(bPath)
	if err != nil {
		return false, err
	}
	return compareResults(bf, a, b, out), nil
}

type compareRow struct {
	metric string
	lower  bool
	bound  float64
	exact  bool
}

func compareResults(bf *benchmarkFile, a, b map[string]*result, out io.Writer) bool {
	var rows []compareRow
	for _, m := range bf.EndToEnd {
		rows = append(rows, compareRow{metric: m.Name, lower: m.Better == "lower", bound: m.Bound})
	}
	for _, m := range metricTable {
		if m.outcome {
			rows = append(rows, compareRow{metric: m.name, lower: m.lower, exact: true})
		}
	}

	names := map[string]bool{}
	for n := range a {
		names[n] = true
	}
	for n := range b {
		names[n] = true
	}
	var order []string
	for n := range names {
		order = append(order, n)
	}
	sort.Strings(order)

	ok := true
	fmt.Fprintf(out, "%-18s %-14s %16s %16s %9s %7s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	for _, wl := range order {
		ra, rb := a[wl], b[wl]
		if ra == nil || rb == nil {
			fmt.Fprintf(out, "%-18s missing from one side: FAIL\n", wl)
			ok = false
			continue
		}
		if ra.Seed != rb.Seed {
			fmt.Fprintf(out, "%-18s seeds differ (%d vs %d): FAIL\n", wl, ra.Seed, rb.Seed)
			ok = false
			continue
		}
		if !ra.Correct || !rb.Correct {
			fmt.Fprintf(out, "%-18s a run failed its output checks: FAIL\n", wl)
			ok = false
		}
		for _, r := range rows {
			va, inA := ra.Metrics[r.metric]
			vb, inB := rb.Metrics[r.metric]
			if !inA && !inB {
				continue
			}
			verdict, good := judge(r, va, vb, inA && inB)
			ok = ok && good
			change := "-"
			if inA && inB && va != 0 {
				change = fmt.Sprintf("%+.2f%%", 100*(vb-va)/va)
			}
			bound := "exact"
			if !r.exact {
				bound = fmt.Sprintf("%.0f%%", 100*r.bound)
			}
			fmt.Fprintf(out, "%-18s %-14s %16.6g %16.6g %9s %7s  %s\n", wl, r.metric, va, vb, change, bound, verdict)
		}
	}
	return ok
}

// judge rates b against a for one metric.
func judge(r compareRow, va, vb float64, both bool) (string, bool) {
	switch {
	case !both:
		return "MISSING", false
	case r.exact && va == vb:
		return "same", true
	case r.exact:
		return "DIFF", false
	case va == 0:
		return "NO BASE", false
	}
	worse := (vb - va) / va
	if !r.lower {
		worse = -worse
	}
	switch {
	case worse > r.bound:
		return "WORSE", false
	case worse < -r.bound:
		return "better", true
	}
	return "ok", true
}
