// Pipeline experiments: the fusion-vs-pipelining ablation the paper's
// baseline family motivates. Multi-layer stacks of all three case
// studies run in the three execution modes — Eager (bulk-synchronous),
// Pipelined (chunked pairs overlapping on per-GPU compute/comm streams,
// the CoCoNet/GC3-style software pipeline), and Compiled (fused
// persistent kernels) — sweeping {shape x layers x chunk count}, with
// per-stream occupancy and overlap-efficiency numbers from the
// stream-aware scheduler.
package experiments

import (
	"fmt"
	"strings"

	"fusedcc/internal/core"
	"fusedcc/internal/dlrm"
	"fusedcc/internal/graph"
	"fusedcc/internal/moe"
	"fusedcc/internal/platform"
	"fusedcc/internal/shmem"
	"fusedcc/internal/sim"
	"fusedcc/internal/sweep"
	"fusedcc/internal/transformer"
)

// stackRunner is the slice of a case-study stack the sweep needs: run
// one pass in a mode and hand back the full graph report.
type stackRunner interface {
	StepReport(p *sim.Proc, mode graph.Mode) *graph.Report
	Executor() *graph.Executor
}

// stackCase names one case-study stack constructor. layers means
// decoder layers, MoE layers, and DLRM embedding groups respectively —
// the case study's natural repetition axis.
type stackCase struct {
	name  string
	build func(w *shmem.World, pes []int, layers int) (stackRunner, error)
	// reshard, when set, rebuilds the stack on a surviving subset of
	// the original ranks after one dropped — re-partitioning the case's
	// state over the survivors (original is the pre-fault rank count).
	// Cases without it cannot serve through a rank loss: their requests
	// drain as bounded retries and drops instead.
	reshard func(w *shmem.World, pes []int, layers, original int) (stackRunner, error)
}

// pipelineCases builds the three multi-layer stacks at experiment sizes
// (timing mode; DLRM coarsened).
func pipelineCases(quick bool) []stackCase {
	// Tile grains sit in the throughput-bound regime on purpose: a chunk
	// must still hold enough concurrent WGs to saturate the device, or
	// chunking would serialize work the full kernel ran in parallel and
	// software pipelining could never pay off.
	decoderCfg := transformer.DecoderConfig{Hidden: 8192, FFN: 32768, TileM: 2, Seed: 1}
	dlrmCfg := dlrm.Config{
		TablesPerGPU: 16, TableRows: 1 << 14, EmbeddingDim: 256,
		GlobalBatch: 1024, AvgPooling: 32,
		BottomMLP: []int{256, 512, 256}, TopMLP: []int{512, 512, 256, 1},
		SliceRows: 32, RowsPerWG: 32, Seed: 1,
	}
	moeCfg := moe.Config{TokensPerGPU: 512, ModelDim: 1024, FFNDim: 4096, TopK: 2, TileM: 16, TileN: 32, Seed: 1}
	if quick {
		decoderCfg.Hidden, decoderCfg.FFN = 4096, 16384
		dlrmCfg.TablesPerGPU, dlrmCfg.GlobalBatch = 8, 512
		moeCfg.TokensPerGPU, moeCfg.FFNDim = 256, 2048
	}
	return []stackCase{
		{name: "decoder", build: func(w *shmem.World, pes []int, layers int) (stackRunner, error) {
			cfg := decoderCfg
			cfg.Layers = layers
			return transformer.NewDecoder(w, pes, cfg, core.DefaultConfig())
		}},
		{name: "dlrm", build: func(w *shmem.World, pes []int, layers int) (stackRunner, error) {
			cfg := dlrmCfg
			cfg.Groups = layers
			return dlrm.New(w, pes, cfg, core.DefaultConfig())
		}, reshard: func(w *shmem.World, pes []int, layers, original int) (stackRunner, error) {
			// Spread the lost rank's tables over the survivors and shrink
			// the global batch to the largest size the embedding all-to-all
			// still shards evenly (survivors x SliceRows must divide it).
			cfg := dlrmCfg
			cfg.Groups = layers
			total := cfg.TablesPerGPU * original
			cfg.TablesPerGPU = (total + len(pes) - 1) / len(pes)
			unit := len(pes) * cfg.SliceRows
			cfg.GlobalBatch = cfg.GlobalBatch / unit * unit
			if cfg.GlobalBatch == 0 {
				return nil, fmt.Errorf("dlrm: no valid batch for %d survivors", len(pes))
			}
			return dlrm.New(w, pes, cfg, core.DefaultConfig())
		}},
		{name: "moe", build: func(w *shmem.World, pes []int, layers int) (stackRunner, error) {
			return moe.NewStack(w, pes, moeCfg, layers, core.DefaultConfig())
		}},
	}
}

// stackRun is one stack execution: makespan plus the stream statistics
// of stream-aware modes and, for Auto runs, the select-pass decisions.
type stackRun struct {
	dur        sim.Duration
	comp, comm float64 // mean stream occupancy
	overlap    float64 // overlap efficiency
	// joins counts the layer-boundary join edges a wavefront partition
	// rewired to chunk granularity (zero otherwise).
	joins int
	// decisions compacts the Auto run's per-pair choices; predicted is
	// the summed predicted cost of the chosen forms; wfChains counts
	// the select pass's wavefront chains (empty/zero unless the run was
	// Auto).
	decisions string
	predicted sim.Duration
	wfChains  int
}

// staticRun labels one measured static-mode makespan for the
// best-static search shared by the auto experiment and PipelinePoint.
type staticRun struct {
	name string
	dur  sim.Duration
}

// bestStatic returns the fastest of the measured static runs and its
// label (first-listed wins ties).
func bestStatic(runs []staticRun) (sim.Duration, string) {
	best := runs[0]
	for _, r := range runs[1:] {
		if r.dur < best.dur {
			best = r
		}
	}
	return best.dur, best.name
}

// summarizeDecisions compacts a select report for a result note: the
// per-pair choices when few, per-choice counts when many.
func summarizeDecisions(sel *graph.SelectReport) string {
	if sel == nil || len(sel.Decisions) == 0 {
		return "no selectable pairs"
	}
	if len(sel.Decisions) <= 4 {
		parts := make([]string, len(sel.Decisions))
		for i, d := range sel.Decisions {
			parts[i] = fmt.Sprintf("%s->%s", d.Compute, d.ChoiceString())
		}
		return strings.Join(parts, ", ")
	}
	counts := map[string]int{}
	var order []string
	for _, d := range sel.Decisions {
		c := d.ChoiceString()
		if counts[c] == 0 {
			order = append(order, c)
		}
		counts[c]++
	}
	parts := make([]string, len(order))
	for i, c := range order {
		parts[i] = fmt.Sprintf("%dx %s", counts[c], c)
	}
	return strings.Join(parts, ", ")
}

// runStack builds the case's stack on a fresh world and runs one pass.
// Every mode runs stream-aware so makespans compare scheduling policies
// on the same two-queue device model. opt supplies the sweep-shared
// pass cache (engines are per-call, so concurrent runStacks only meet
// at the cache). Construction errors surface to the caller:
// PipelinePoint is reachable with user-supplied shapes through
// fusionbench, where an indivisible shape is a usage error, not a
// programming one.
func runStack(sc stackCase, nodes, gpus, layers, chunks int, mode graph.Mode, opt Options) (stackRun, error) {
	pl, w := clusterWorld(nodes, gpus)
	r, err := sc.build(w, allPEs(pl), layers)
	if err != nil {
		return stackRun{}, fmt.Errorf("%s on %dx%d: %w", sc.name, nodes, gpus, err)
	}
	x := r.Executor()
	x.Chunks = chunks
	x.Streams = true
	x.Cache = opt.Cache
	var rep *graph.Report
	pl.E.Go("pipeline", func(p *sim.Proc) { rep = r.StepReport(p, mode) })
	pl.E.Run()
	out := stackRun{dur: rep.Duration(), overlap: rep.OverlapEfficiency()}
	out.comp, out.comm = rep.StreamOccupancy()
	if rep.Select != nil {
		out.joins = len(rep.Select.Joins)
	}
	if rep.Mode == graph.Auto {
		out.decisions = summarizeDecisions(rep.Select)
		out.predicted = rep.Select.PredictedTotal()
		out.wfChains = len(rep.Select.Wavefronts)
	}
	return out, nil
}

// stackJob names one stack execution of a sweep: a case at one sweep
// point in one mode — the unit of work the parallel runner schedules.
type stackJob struct {
	sc                          stackCase
	nodes, gpus, layers, chunks int
	mode                        graph.Mode
}

// runJobs executes the jobs on the sweep worker pool (inline when
// opt.Parallel is one) and returns their runs in job order. Each job
// builds its own engine and world; workers share only the pass cache.
// Errors surface by lowest job index — exactly the error a serial run
// would have returned first.
func runJobs(jobs []stackJob, opt Options) ([]stackRun, error) {
	type outcome struct {
		run stackRun
		err error
	}
	outs := sweep.Map(opt.Parallel, len(jobs), func(i int) outcome {
		j := jobs[i]
		run, err := runStack(j.sc, j.nodes, j.gpus, j.layers, j.chunks, j.mode, opt)
		return outcome{run, err}
	})
	runs := make([]stackRun, len(outs))
	for i, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		runs[i] = o.run
	}
	return runs, nil
}

// pointJobs enumerates the stack executions one pipeline point needs,
// in the fixed order pointAssemble consumes: per case, eager /
// pipelined / fused, plus the extra run of a wavefront or auto point.
func pointJobs(cases []stackCase, nodes, gpus, layers, chunks int, mode graph.Mode) []stackJob {
	jobs := make([]stackJob, 0, len(cases)*pointJobsPerCase(mode))
	for _, sc := range cases {
		jobs = append(jobs,
			stackJob{sc, nodes, gpus, layers, chunks, graph.Eager},
			stackJob{sc, nodes, gpus, layers, chunks, graph.Pipelined},
			stackJob{sc, nodes, gpus, layers, chunks, graph.Compiled})
		if mode == graph.Wavefront || mode == graph.Auto {
			jobs = append(jobs, stackJob{sc, nodes, gpus, layers, chunks, mode})
		}
	}
	return jobs
}

// pointJobsPerCase is the per-case job count of pointJobs.
func pointJobsPerCase(mode graph.Mode) int {
	if mode == graph.Wavefront || mode == graph.Auto {
		return 4
	}
	return 3
}

// pointAssemble appends one pipeline point's rows and notes to res from
// its completed runs (the order pointJobs emitted them in).
func pointAssemble(res *Result, cases []stackCase, label string, mode graph.Mode, runs []stackRun) {
	per := pointJobsPerCase(mode)
	for ci, sc := range cases {
		eager, pipelined, fused := runs[ci*per], runs[ci*per+1], runs[ci*per+2]
		sel := eager
		switch mode {
		case graph.Pipelined:
			sel = pipelined
		case graph.Compiled:
			sel = fused
		case graph.Wavefront, graph.Auto:
			sel = runs[ci*per+3]
		}
		res.Rows = append(res.Rows, Row{
			Label:    fmt.Sprintf("%s %s", sc.name, label),
			Baseline: eager.dur,
			Fused:    sel.dur,
		})
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%s %s: eager %v, pipelined %v (-%.1f%%), fused %v (-%.1f%%); pipelined streams: compute %.0f%%, comm %.0f%% occupancy, overlap eff %.0f%%",
			sc.name, label, eager.dur,
			pipelined.dur, 100*(1-float64(pipelined.dur)/float64(eager.dur)),
			fused.dur, 100*(1-float64(fused.dur)/float64(eager.dur)),
			100*pipelined.comp, 100*pipelined.comm, 100*pipelined.overlap))
		switch mode {
		case graph.Auto:
			best, bestName := bestStatic([]staticRun{
				{"eager", eager.dur}, {"pipelined", pipelined.dur}, {"fused", fused.dur},
			})
			res.Notes = append(res.Notes, fmt.Sprintf(
				"%s %s auto: %v (predicted pair cost %v), decisions: %s; best static %s %v, regret %+.1f%%",
				sc.name, label, sel.dur, sel.predicted, sel.decisions,
				bestName, best, 100*(float64(sel.dur)/float64(best)-1)))
		case graph.Wavefront:
			res.Notes = append(res.Notes, fmt.Sprintf(
				"%s %s wavefront: %v vs pipelined %v (%+.1f%%), %d join(s) rewired, overlap eff %.0f%%",
				sc.name, label, sel.dur, pipelined.dur,
				100*(float64(sel.dur)/float64(pipelined.dur)-1), sel.joins, 100*sel.overlap))
		}
	}
}

// PipelinePoint runs one {shape, layers, chunks} configuration of every
// case-study stack in eager, pipelined, and fused form. Rows pair eager
// (baseline) against the requested mode; notes carry all three
// makespans and the pipelined run's per-stream occupancy.
func PipelinePoint(nodes, gpus, layers, chunks int, mode graph.Mode, opt Options) (*Result, error) {
	if err := validShape(nodes, gpus); err != nil {
		return nil, err
	}
	if layers < 1 || chunks < 1 {
		return nil, fmt.Errorf("experiments: need layers >= 1 and chunks >= 1, got %d and %d", layers, chunks)
	}
	opt = opt.withCache()
	label := fmt.Sprintf("%dx%d L%d K%d", nodes, gpus, layers, chunks)
	res := &Result{
		ID:    "Pipeline" + label,
		Title: fmt.Sprintf("execution modes on multi-layer stacks (%s, %v vs eager)", label, mode),
	}
	cases := pipelineCases(opt.Quick)
	runs, err := runJobs(pointJobs(cases, nodes, gpus, layers, chunks, mode), opt)
	if err != nil {
		return nil, err
	}
	pointAssemble(res, cases, label, mode, runs)
	return res, nil
}

// Pipeline is the full fusion-vs-pipelining sweep: {mode x chunk count
// x layers x shape} over the three case-study stacks. Rows pair eager
// against pipelined (the headline comparison); notes carry the fused
// makespans and stream statistics per configuration. The whole sweep
// is enumerated as one flat job list, so the worker pool stays full
// across point boundaries.
func Pipeline(opt Options) *Result {
	shapes := [][2]int{{1, 8}, {2, 4}, {8, 1}}
	layerss := []int{2, 4}
	chunkss := []int{2, 4}
	if opt.Quick {
		shapes = [][2]int{{1, 8}, {8, 1}}
		layerss = []int{2}
		chunkss = []int{2}
	}
	opt = opt.withCache()
	cases := pipelineCases(opt.Quick)
	type point struct{ nodes, gpus, layers, chunks int }
	var points []point
	for _, sh := range shapes {
		for _, layers := range layerss {
			for _, chunks := range chunkss {
				points = append(points, point{sh[0], sh[1], layers, chunks})
			}
		}
	}
	var jobs []stackJob
	for _, pt := range points {
		jobs = append(jobs, pointJobs(cases, pt.nodes, pt.gpus, pt.layers, pt.chunks, graph.Pipelined)...)
	}
	runs, err := runJobs(jobs, opt)
	if err != nil {
		panic(err) // sweep shapes are fixed and valid
	}
	res := &Result{ID: "Pipeline", Title: "eager vs pipelined vs fused on multi-layer stacks (beyond the paper)"}
	per := len(cases) * pointJobsPerCase(graph.Pipelined)
	for i, pt := range points {
		label := fmt.Sprintf("%dx%d L%d K%d", pt.nodes, pt.gpus, pt.layers, pt.chunks)
		pointAssemble(res, cases, label, graph.Pipelined, runs[i*per:(i+1)*per])
	}
	return res
}

// validShape mirrors platform validation for user-supplied shapes.
func validShape(nodes, gpus int) error {
	return platform.Cluster(nodes, gpus).Validate()
}
