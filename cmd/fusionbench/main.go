// Command fusionbench regenerates the tables and figures of the paper's
// evaluation section (§IV) from the simulation, printing each as a text
// table with the paper's reference numbers alongside.
//
// Usage:
//
//	fusionbench -all            # every artifact, full sweeps
//	fusionbench -fig 12         # one figure (16 = hybrid-cluster sweep)
//	fusionbench -table 1        # one setup table
//	fusionbench -ablations      # the design-choice ablations
//	fusionbench -shape 4x4      # hybrid comparison on one nodes x gpus shape
//	fusionbench -pipeline       # eager vs pipelined vs fused mode sweep
//	fusionbench -mode pipelined -chunks 4 -layers 4 -shape 2x4
//	                            # one execution-mode configuration
//	fusionbench -mode auto -json BENCH_auto.json
//	                            # cost-model mode-selection validation
//	                            # sweep (chosen modes, regret, mispredicts)
//	fusionbench -mode wavefront -json BENCH_wavefront.json
//	                            # inter-layer wavefront vs per-pair
//	                            # pipelining sweep (joins, overlap, auto
//	                            # cross-check)
//	fusionbench -mode serve -json BENCH_serving.json
//	                            # open-loop serving sweep: idle-machine
//	                            # vs load-aware Auto plans under QPS
//	                            # load (p99, goodput, crossover points)
//	fusionbench -mode serve -qps 20000 -requests 64 -shape 1x8
//	                            # serve one shape at one offered rate
//	fusionbench -mode serve -trace arrivals.txt
//	                            # replay a recorded arrival trace
//	                            # ("<offset-seconds> [kind]" per line)
//	fusionbench -mode chaos -json BENCH_chaos.json
//	                            # fault-injection sweep: static plans vs
//	                            # degradation-aware online re-selection
//	                            # through slow-NIC / straggler /
//	                            # dropped-rank scenarios (p99, goodput,
//	                            # drops, re-shards)
//	fusionbench -mode chaos -faults "slowlink@3,x8;droprank@?,start=40ms"
//	                            # serve one shape under a specific plan
//	                            # ("?" targets draw from -seed)
//	fusionbench -json out.json  # also emit machine-readable makespans
//	fusionbench -pipeline -quick -compare BENCH_pipeline.json
//	                            # CI perf gate: fail if any makespan
//	                            # regresses past -tolerance vs baseline
//	fusionbench -quick ...      # shrunken sweeps (CI-sized)
//	fusionbench -parallel 8 ... # sweep points on 8 workers (default
//	                            # GOMAXPROCS; 1 = serial; simulated
//	                            # results are identical at any count)
//	fusionbench -cpuprofile cpu.out -memprofile mem.out ...
//	                            # host-side pprof profiles of the run
//	fusionbench -fig 15 -parallel 1 -speedjson BENCH_speed.json
//	                            # also record host wall-clock speeds and
//	                            # engine counters (here of the 128-node
//	                            # DLRM training replay)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"fusedcc"
)

// parseShape parses "NxG" (e.g. "4x4") into nodes and GPUs per node,
// rejecting trailing garbage so "4x4x2" doesn't silently run 4x4.
func parseShape(s string) (nodes, gpus int, err error) {
	m := shapeRe.FindStringSubmatch(s)
	if m == nil {
		return 0, 0, fmt.Errorf("bad -shape %q: want NODESxGPUS, e.g. 4x4", s)
	}
	nodes, _ = strconv.Atoi(m[1])
	gpus, _ = strconv.Atoi(m[2])
	return nodes, gpus, nil
}

var shapeRe = regexp.MustCompile(`^(\d+)x(\d+)$`)

// parseMode maps the -mode flag to an execution mode.
func parseMode(s string) (fusedcc.ExecMode, error) {
	switch s {
	case "eager":
		return fusedcc.Eager, nil
	case "fused", "compiled":
		return fusedcc.Compiled, nil
	case "pipelined":
		return fusedcc.Pipelined, nil
	case "auto":
		return fusedcc.Auto, nil
	case "wavefront":
		return fusedcc.Wavefront, nil
	}
	return 0, fmt.Errorf("bad -mode %q: want eager, pipelined, fused, wavefront, or auto", s)
}

// jsonRow and jsonResult are the BENCH JSON schema: one entry per
// experiment with per-row makespans in nanoseconds, so CI can track
// the performance trajectory across commits.
type jsonRow struct {
	Label      string  `json:"label"`
	BaselineNs int64   `json:"baseline_ns"`
	FusedNs    int64   `json:"fused_ns"`
	Normalized float64 `json:"normalized"`
}

type jsonResult struct {
	ID    string    `json:"id"`
	Title string    `json:"title"`
	Rows  []jsonRow `json:"rows"`
	Notes []string  `json:"notes,omitempty"`
}

// jsonHost records host-side (wall-clock) facts of one run. Simulated
// times never depend on the host; this block exists so future commits
// have a host-speed trajectory alongside the virtual-time rows.
type jsonHost struct {
	WallMs     int64 `json:"wall_ms"`
	GoMaxProcs int   `json:"go_maxprocs"`
	NumCPU     int   `json:"num_cpu"`
}

// jsonHeader is the schema-2 BENCH JSON header. Everything outside
// header is a pure function of the simulation: serial and parallel
// runs produce byte-identical results arrays (CI diffs them with the
// header stripped).
type jsonHeader struct {
	Schema   int      `json:"schema"`
	Quick    bool     `json:"quick"`
	Parallel int      `json:"parallel"`
	Host     jsonHost `json:"host"`
}

type jsonFile struct {
	Header  jsonHeader   `json:"header"`
	Results []jsonResult `json:"results"`
}

// encodeResults converts experiment results to the JSON row schema.
func encodeResults(results []*fusedcc.ExperimentResult) []jsonResult {
	out := make([]jsonResult, 0, len(results))
	for _, res := range results {
		jr := jsonResult{ID: res.ID, Title: res.Title, Notes: res.Notes}
		for _, r := range res.Rows {
			jr.Rows = append(jr.Rows, jsonRow{
				Label:      r.Label,
				BaselineNs: int64(r.Baseline),
				FusedNs:    int64(r.Fused),
				Normalized: r.Normalized(),
			})
		}
		out = append(out, jr)
	}
	return out
}

// writeJSON emits the collected results as a machine-readable schema-2
// file: a host header (wall-clock, worker count) plus the simulated
// results.
func writeJSON(path string, header jsonHeader, results []*fusedcc.ExperimentResult) error {
	data, err := json.MarshalIndent(jsonFile{Header: header, Results: encodeResults(results)}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// parseBaseline reads a schema-2 baseline JSON: the header object plus
// the results array. Anything else, the legacy bare results array
// included, is an error, so the gate fails closed.
func parseBaseline(data []byte) ([]jsonResult, error) {
	var file jsonFile
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, err
	}
	if file.Header.Schema != 2 {
		return nil, fmt.Errorf("baseline schema %d, want 2", file.Header.Schema)
	}
	return file.Results, nil
}

// compareBaseline is the CI perf-regression gate: it checks the
// collected results against a committed baseline JSON (the same schema
// writeJSON emits). A row whose measured makespan (fused_ns, the
// mode-under-test column) exceeds the baseline by more than tol
// regresses and fails the run. So does a row that measured 0 ns where
// the baseline measured time: an arm that served nothing reads 0 ns,
// and must not pass as a 100% win. Rows are matched by (experiment id,
// label); rows absent from the baseline are new and ignored, so adding
// configurations never breaks the gate.
func compareBaseline(path string, tol float64, results []*fusedcc.ExperimentResult) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	base, err := parseBaseline(data)
	if err != nil {
		return fmt.Errorf("parse baseline %s: %w", path, err)
	}
	index := map[string]jsonRow{}
	for _, br := range base {
		for _, r := range br.Rows {
			index[br.ID+"|"+r.Label] = r
		}
	}
	var regressions []string
	matched := map[string]bool{}
	checked, fresh := 0, 0
	for _, res := range results {
		for _, r := range res.Rows {
			key := res.ID + "|" + r.Label
			b, ok := index[key]
			if !ok {
				fresh++
				continue
			}
			matched[key] = true
			checked++
			if r.Fused == 0 && b.FusedNs != 0 {
				regressions = append(regressions, fmt.Sprintf(
					"  %s | %s: 0 ns vs baseline %d ns (nothing measured)", res.ID, r.Label, b.FusedNs))
			} else if float64(r.Fused) > float64(b.FusedNs)*(1+tol) {
				regressions = append(regressions, fmt.Sprintf(
					"  %s | %s: %d ns vs baseline %d ns (%+.1f%%)",
					res.ID, r.Label, int64(r.Fused), b.FusedNs,
					100*(float64(r.Fused)/float64(b.FusedNs)-1)))
			}
		}
	}
	missing := 0
	for key := range index {
		if !matched[key] {
			missing++
		}
	}
	fmt.Printf("compare vs %s: %d row(s) checked at %.0f%% tolerance, %d new, %d baseline row(s) not produced\n",
		path, checked, 100*tol, fresh, missing)
	// Fail closed: a run that matches no baseline rows means the sweep
	// labels or experiment ids drifted from the committed baseline —
	// the gate would otherwise silently stop gating.
	if checked == 0 {
		return fmt.Errorf("no result rows matched baseline %s: regenerate the baseline or fix the sweep labels", path)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("perf regression against %s:\n%s", path, strings.Join(regressions, "\n"))
	}
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// speedEntry is one experiment's host wall-clock line of the speed
// file.
type speedEntry struct {
	ID     string `json:"id"`
	WallMs int64  `json:"wall_ms"`
}

// speedFile is the BENCH_speed.json schema (2): the host-speed
// trajectory of a sweep run — wall-clock plus process-wide engine
// runtime counters (simulated times live in the BENCH result files).
type speedFile struct {
	Schema      int                 `json:"schema"`
	Quick       bool                `json:"quick"`
	Parallel    int                 `json:"parallel"`
	GoMaxProcs  int                 `json:"go_maxprocs"`
	NumCPU      int                 `json:"num_cpu"`
	WallMs      int64               `json:"wall_ms"`
	Engine      fusedcc.EngineStats `json:"engine"`
	Experiments []speedEntry        `json:"experiments,omitempty"`
}

// main times each experiment's regeneration on the host clock for the
// speed JSON; simulated results never depend on these reads.
//
//detlint:allow wallclock -- host speed reporting, not simulated time
func main() {
	var (
		fig        = flag.Int("fig", 0, "regenerate figure N (8..16; 16 is the hybrid-cluster sweep)")
		table      = flag.Int("table", 0, "regenerate table N (1..2)")
		all        = flag.Bool("all", false, "regenerate every table and figure")
		ablations  = flag.Bool("ablations", false, "run the design-choice ablations")
		shape      = flag.String("shape", "", "nodes x GPUs shape (e.g. 4x4): hybrid comparison, or the shape of -mode")
		pipeline   = flag.Bool("pipeline", false, "run the eager vs pipelined vs fused execution-mode sweep")
		mode       = flag.String("mode", "", "run one execution-mode configuration: eager, pipelined, fused, auto, wavefront, or serve (auto/wavefront/serve without -shape run their full sweeps)")
		chunks     = flag.Int("chunks", fusedcc.DefaultChunks, "pipeline depth K for -mode pipelined")
		qps        = flag.Float64("qps", 0, "offered request rate for -mode serve (0 without -trace runs the full serving sweep)")
		faults     = flag.String("faults", "", "fault plan for -mode chaos: semicolon-separated \"kind@target[,x<factor>][,latency][,start=<dur>][,for=<dur>]\" with kind slowlink/straggler/droprank and target an id or ? (drawn from -seed); empty runs the full chaos sweep")
		trace      = flag.String("trace", "", "arrival trace file for -mode serve (one request per line: \"<offset-seconds> [kind]\")")
		requests   = flag.Int("requests", 64, "request count bound for -mode serve -qps")
		duration   = flag.Float64("duration", 0, "simulated horizon in seconds for -mode serve -qps (0: bound by -requests only)")
		seed       = flag.Int64("seed", 1, "arrival seed for -mode serve -qps")
		layers     = flag.Int("layers", 2, "stack depth L for -mode (decoder layers / MoE layers / DLRM groups)")
		jsonPath   = flag.String("json", "", "also write the results as machine-readable JSON (e.g. BENCH_pipeline.json)")
		compare    = flag.String("compare", "", "compare results against a committed baseline JSON and fail on perf regression")
		tolerance  = flag.Float64("tolerance", 0.10, "relative slowdown tolerated by -compare before failing")
		quick      = flag.Bool("quick", false, "shrink sweeps for a fast run")
		parallel   = flag.Int("parallel", 0, "sweep worker count: 0 = GOMAXPROCS, 1 = serial (results are identical at any count)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile at exit to this file")
		speedPath  = flag.String("speedjson", "", "also write host wall-clock speeds as JSON (e.g. BENCH_speed.json)")
	)
	flag.Parse()
	if *parallel < 1 {
		*parallel = runtime.GOMAXPROCS(0)
	}
	sopt := fusedcc.SweepOptions{Quick: *quick, Parallel: *parallel}
	start := time.Now()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}

	var (
		results []*fusedcc.ExperimentResult
		speeds  []speedEntry
	)
	emit := func(res *fusedcc.ExperimentResult) {
		fmt.Println(res)
		results = append(results, res)
	}
	// runExp regenerates one registry experiment, timing it for the
	// speed file.
	runExp := func(id string) *fusedcc.ExperimentResult {
		t0 := time.Now()
		res, err := fusedcc.RunExperimentOpt(id, sopt)
		if err != nil {
			fail(err)
		}
		speeds = append(speeds, speedEntry{ID: id, WallMs: time.Since(t0).Milliseconds()})
		return res
	}
	finish := func() {
		wall := time.Since(start).Milliseconds()
		if *jsonPath != "" {
			header := jsonHeader{
				Schema:   2,
				Quick:    *quick,
				Parallel: *parallel,
				Host:     jsonHost{WallMs: wall, GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()},
			}
			if err := writeJSON(*jsonPath, header, results); err != nil {
				fail(err)
			}
			fmt.Printf("(wrote %s)\n", *jsonPath)
		}
		if *speedPath != "" {
			sf := speedFile{
				Schema: 2, Quick: *quick, Parallel: *parallel,
				GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
				WallMs: wall, Engine: fusedcc.GlobalEngineStats(),
				Experiments: speeds,
			}
			data, err := json.MarshalIndent(sf, "", "  ")
			if err != nil {
				fail(err)
			}
			if err := os.WriteFile(*speedPath, append(data, '\n'), 0o644); err != nil {
				fail(err)
			}
			fmt.Printf("(wrote %s: %d ms wall at -parallel %d)\n", *speedPath, wall, *parallel)
		}
		if *memprofile != "" {
			f, err := os.Create(*memprofile)
			if err != nil {
				fail(err)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail(err)
			}
			f.Close()
		}
		if *compare != "" {
			if err := compareBaseline(*compare, *tolerance, results); err != nil {
				fail(err)
			}
		}
	}

	switch {
	case *mode == "serve":
		if *shape == "" && *qps == 0 && *trace == "" {
			// Bare -mode serve runs the full serving sweep (every case
			// stack per shape, offered load stepped through multiples of
			// its saturation rate, idle-machine vs load-aware plans) —
			// the BENCH_serving.json producer. Add -qps or -trace (and
			// optionally -shape) to serve one configuration instead.
			emit(runExp("serving"))
			finish()
			return
		}
		nodes, gpus := 1, 8
		var err error
		if *shape != "" {
			if nodes, gpus, err = parseShape(*shape); err != nil {
				fail(err)
			}
		}
		res, err := fusedcc.RunServingConfigOpt(nodes, gpus, *layers, *qps, *requests,
			fusedcc.DurationOf(*duration), *trace, *seed, sopt)
		if err != nil {
			fail(err)
		}
		emit(res)
		finish()
		return

	case *mode == "chaos":
		if *faults == "" && *shape == "" {
			// Bare -mode chaos runs the full fault-injection sweep (every
			// scenario x serving arm on the scale-out shape) — the
			// BENCH_chaos.json producer. Add -faults (and optionally
			// -shape) to inject one plan instead.
			emit(runExp("chaos"))
			finish()
			return
		}
		nodes, gpus := 8, 1
		var err error
		if *shape != "" {
			if nodes, gpus, err = parseShape(*shape); err != nil {
				fail(err)
			}
		}
		res, err := fusedcc.RunChaosConfigOpt(nodes, gpus, *layers, *faults, *qps, *requests, *seed, sopt)
		if err != nil {
			fail(err)
		}
		emit(res)
		finish()
		return

	case *mode != "":
		m, err := parseMode(*mode)
		if err != nil {
			fail(err)
		}
		if m == fusedcc.Auto && *shape == "" {
			// Bare -mode auto runs the full mode-selection validation
			// sweep (per-config chosen modes, predicted vs measured
			// makespans, regret vs best-static) — the BENCH_auto.json
			// producer. Add -shape to run one configuration instead.
			emit(runExp("auto"))
			finish()
			return
		}
		if m == fusedcc.Wavefront && *shape == "" {
			// Bare -mode wavefront runs the full inter-layer wavefront
			// validation sweep — the BENCH_wavefront.json producer. Add
			// -shape to run one configuration instead.
			emit(runExp("wavefront"))
			finish()
			return
		}
		nodes, gpus := 1, 8
		if *shape != "" {
			if nodes, gpus, err = parseShape(*shape); err != nil {
				fail(err)
			}
		}
		res, err := fusedcc.RunPipelineConfigOpt(nodes, gpus, *layers, *chunks, m, sopt)
		if err != nil {
			fail(err)
		}
		emit(res)
		finish()
		return

	case *shape != "":
		nodes, gpus, err := parseShape(*shape)
		if err != nil {
			fail(err)
		}
		res, err := fusedcc.RunHybridShape(nodes, gpus, *quick)
		if err != nil {
			fail(err)
		}
		emit(res)
		finish()
		return
	}

	// The id lists derive from the facade's experiment registry, so the
	// CLI cannot drift from RunExperimentOpt's dispatch table.
	var ablationIDs []string
	for _, id := range fusedcc.Experiments() {
		if strings.HasPrefix(id, "ablation:") {
			ablationIDs = append(ablationIDs, id)
		}
	}
	var ids []string
	switch {
	case *all:
		for _, id := range fusedcc.Experiments() {
			if *quick && strings.HasPrefix(id, "ablation:") {
				continue
			}
			ids = append(ids, id)
		}
	case *ablations:
		ids = ablationIDs
	case *pipeline:
		ids = []string{"pipeline"}
	case *fig != 0:
		ids = []string{fmt.Sprintf("fig%d", *fig)}
	case *table != 0:
		ids = []string{fmt.Sprintf("table%d", *table)}
	default:
		flag.Usage()
		os.Exit(2)
	}

	for _, id := range ids {
		t0 := time.Now()
		emit(runExp(id))
		fmt.Printf("(regenerated in %v)\n\n", time.Since(t0).Round(time.Millisecond))
	}
	finish()
}
