package main

import (
	"fmt"
	"os/exec"
	"sort"
	"strings"
	"time"
)

// profileSample is one stack of a CPU profile: function names from the
// leaf outwards, and the CPU time the profiler charged to it.
type profileSample struct {
	funcs  []string
	weight time.Duration
}

// profileStacks reads the CPU profile at path through the toolchain's
// pprof, which prints every sampled stack.
func profileStacks(path string) ([]profileSample, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %w", path, err)
	}
	return parseTraces(string(out))
}

// parseTraces reads pprof's -traces report. After a header, stacks are
// separated by dashed lines; a stack's first line holds its weight and
// leaf function, and each further line one caller.
func parseTraces(report string) ([]profileSample, error) {
	var samples []profileSample
	inStacks, fresh := false, false
	for _, line := range strings.Split(report, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			inStacks, fresh = true, true
			continue
		}
		line = strings.TrimSuffix(strings.TrimSpace(line), " (inline)")
		if !inStacks || line == "" {
			continue
		}
		if fresh {
			weight, fn, _ := strings.Cut(line, " ")
			d, err := time.ParseDuration(weight)
			if err != nil {
				return nil, fmt.Errorf("pprof traces: stack weight %q: %w", weight, err)
			}
			samples = append(samples, profileSample{funcs: []string{strings.TrimSpace(fn)}, weight: d})
			fresh = false
			continue
		}
		s := &samples[len(samples)-1]
		s.funcs = append(s.funcs, line)
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("pprof traces: no stacks in the report")
	}
	return samples, nil
}

// layerOf names the fusedcc layer a function belongs to: its package
// under fusedcc/internal, with the sim package split into its bandwidth
// servers (sim.resource) and the rest of the engine (sim.engine).
func layerOf(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, "fusedcc/internal/")
	if !ok {
		return "", false
	}
	pkg, _, _ := strings.Cut(rest, ".")
	if pkg == "sim" {
		if strings.Contains(rest, "(*Resource)") {
			return "sim.resource", true
		}
		return "sim.engine", true
	}
	return pkg, true
}

// selfShares attributes every sample to the innermost fusedcc layer on
// its stack, so a layer's share includes the standard library and
// runtime work it calls directly but not other layers it calls. Samples
// with no layer on the stack go to "runtime" when the leaf is in the Go
// runtime (background GC, the scheduler) and to "other" otherwise.
func selfShares(samples []profileSample) map[string]float64 {
	weights := map[string]time.Duration{}
	var total time.Duration
	for _, s := range samples {
		group := "other"
		for _, fn := range s.funcs {
			if l, ok := layerOf(fn); ok {
				group = l
				break
			}
		}
		if group == "other" && len(s.funcs) > 0 && strings.HasPrefix(s.funcs[0], "runtime.") {
			group = "runtime"
		}
		weights[group] += s.weight
		total += s.weight
	}
	shares := map[string]float64{}
	if total == 0 {
		return shares
	}
	for g, w := range weights {
		shares[g] = float64(w) / float64(total)
	}
	return shares
}

// sortedShares lists shares largest first, ties by name.
func sortedShares(shares map[string]float64) []string {
	names := make([]string, 0, len(shares))
	for g := range shares {
		names = append(names, g)
	}
	sort.Slice(names, func(i, j int) bool {
		if shares[names[i]] != shares[names[j]] {
			return shares[names[i]] > shares[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}
