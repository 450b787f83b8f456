// Command benchmark measures fusedcc end to end and layer by layer on
// four fixed workloads: three open-loop serving workloads (a
// tensor-parallel decoder, an MoE stack, a DLRM under a NIC fault) and
// the Table II training replay. It drives the layers only through their
// public functions, generates every input from -seed, checks the
// outputs, and prints every metric with its name and unit. The last line
// of a single-workload run is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// holding the end-to-end metrics, or with -trace 1 the per-layer ones.
// See README.md for the workloads, the metrics and how to read a trace.
//
// Usage:
//
//	benchmark -workload <name|all> [-seed N] [-seconds S] [-trace 0|1] [-json out.json]
//	benchmark -compare a.json b.json
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// maxProcs pins the Go scheduler to the host size the benchmark's
// numbers were taken on, so runs on larger hosts stay comparable.
const maxProcs = 2

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit code explicit: 0 when every
// output check held, 1 when one failed or the run could not complete,
// 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or all (each in its own process)")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Float64("seconds", 30, "how long to keep repeating timed passes")
	trace := fs.Int("trace", 0, "1: also run a traced pass and report the per-layer metrics")
	jsonPath := fs.String("json", "", "merge the full result into this JSON file")
	compare := fs.Bool("compare", false, "compare two -json files: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two files")
			return 2
		}
		ok, err := compareFiles(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		if !ok {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || !(*seconds > 0) {
		fmt.Fprintln(stderr, "benchmark: usage: -workload <name|all> [-seed N] [-seconds S] [-trace 0|1] [-json out.json]")
		return 2
	}
	if *name == "all" {
		return runAll(args, stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %s, all)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}

	runtime.GOMAXPROCS(maxProcs)
	res, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	printResult(stdout, res)
	if *jsonPath != "" {
		if err := mergeResult(*jsonPath, res); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	line, err := summaryLine(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name()
	}
	return names
}

// runAll runs every workload in its own process, one after another, so
// each has its own peak RSS and heap.
func runAll(args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	code := 0
	for _, name := range workloadNames() {
		cmd := exec.Command(exe, append(withoutWorkload(args), "-workload", name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				fmt.Fprintln(stderr, "benchmark:", err)
			}
			code = 1
		}
	}
	return code
}

// withoutWorkload drops the -workload flag (either spelling, either
// form) from args.
func withoutWorkload(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := strings.TrimLeft(args[i], "-")
		if a == "workload" {
			i++
			continue
		}
		if strings.HasPrefix(a, "workload=") {
			continue
		}
		out = append(out, args[i])
	}
	return out
}

// printResult writes every metric the run measured, in table order,
// then the checks that failed and the notes.
func printResult(w io.Writer, res *result) {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "workload %s  seed %d  passes %d  traced %t\n", res.Workload, res.Seed, res.Passes, res.Traced)
	var na []string
	for _, m := range metricTable {
		v, ok := res.Metrics[m.name]
		if !ok {
			na = append(na, m.name)
			continue
		}
		kind := "layer"
		if m.e2e || m.outcome {
			kind = "end-to-end"
		}
		fmt.Fprintf(bw, "  %-30s %16s %-9s %s\n", m.name, strconv.FormatFloat(v, 'g', 8, 64), m.unit, kind)
	}
	if len(na) > 0 {
		fmt.Fprintf(bw, "  not measured here: %s\n", strings.Join(na, " "))
	}
	if len(res.Self) > 0 {
		var parts []string
		for _, g := range sortedShares(res.Self) {
			parts = append(parts, fmt.Sprintf("%s %.1f%%", g, 100*res.Self[g]))
		}
		fmt.Fprintf(bw, "  host self time: %s\n", strings.Join(parts, ", "))
	}
	for _, n := range res.Notes {
		fmt.Fprintf(bw, "  note: %s\n", n)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(bw, "check failed: %s\n", f)
	}
	bw.Flush()
}

// summaryLine renders the one-line JSON result: the end-to-end metrics
// of an untraced run, or the per-layer metrics of a traced one. A
// per-layer metric that does not apply to the workload reads 0.
func summaryLine(res *result) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, m := range metricTable {
		if m.e2e == res.Traced {
			continue
		}
		ms[m.name] = value{res.Metrics[m.name], m.unit}
	}
	data, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, ms})
	return string(data), err
}

// mergeResult adds res to the workload-keyed results file at path,
// replacing an earlier result for the same workload.
func mergeResult(path string, res *result) error {
	all, err := readResults(path)
	if errors.Is(err, os.ErrNotExist) {
		all, err = map[string]*result{}, nil
	}
	if err != nil {
		return err
	}
	all[res.Workload] = res
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResults(path string) (map[string]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	all := map[string]*result{}
	if err := json.Unmarshal(data, &all); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return all, nil
}
