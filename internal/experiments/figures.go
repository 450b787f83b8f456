package experiments

import (
	"fmt"

	"fusedcc/internal/astra"
	"fusedcc/internal/core"
	"fusedcc/internal/gpu"
	"fusedcc/internal/kernels"
	"fusedcc/internal/platform"
	"fusedcc/internal/shmem"
	"fusedcc/internal/sim"
	"fusedcc/internal/trace"
)

// paper-wide workload constants for the kernel experiments (§IV-A):
// embedding dim 256 per [47]; pooling factor for the hardware-evaluated
// kernels; slice of 32 embeddings (§IV-C).
const (
	embDim     = 256
	embPooling = 64
	embSlice   = 32
)

// Fig8 regenerates the intra-node (scale-up, 4 GPUs) fused embedding +
// All-to-All sweep. Paper: avg -20%, up to -32%; smaller batches gain
// less (small All-to-All payloads).
func Fig8(opt Options) *Result {
	configs := []embConfig{
		{512, 64}, {512, 128}, {1024, 64}, {1024, 128},
		{2048, 128}, {2048, 256}, {4096, 128}, {4096, 256},
	}
	if opt.Quick {
		configs = []embConfig{{512, 64}, {2048, 128}}
	}
	res := &Result{ID: "Fig8", Title: "fused embedding + All-to-All, intra-node (zero-copy), normalized time"}
	for _, c := range configs {
		res.Rows = append(res.Rows, embeddingPoint(1, 4, c, embDim, embPooling, embSlice, core.DefaultConfig()))
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("mean reduction %.1f%% (paper: 20%%), max %.1f%% (paper: 32%%)",
			100*res.MeanReduction(), 100*res.MaxReduction()))
	return res
}

// Fig9 regenerates the GEMV + AllReduce sweep on 4 GPUs. Paper: avg
// -13%, up to -22%, shrinking at M=64k as Infinity-Fabric contention
// grows.
func Fig9(opt Options) *Result {
	ms := []int{8192, 16384, 32768, 65536}
	if opt.Quick {
		ms = []int{8192, 65536}
	}
	// K is the per-GPU shard of the reduced dimension (hidden 12k at
	// TP=4), giving the decode-phase GEMV:AllReduce balance of [50].
	const kdim = 3072
	res := &Result{ID: "Fig9", Title: "fused GEMV + AllReduce, scale-up, normalized time"}
	for _, m := range ms {
		run := func(fused bool) sim.Duration {
			pl, w := scaleUpWorld(4)
			pes := allPEs(pl)
			gemvs := make([]*kernels.GEMV, len(pes))
			for s := range pes {
				gemvs[s] = &kernels.GEMV{M: m, K: kdim, TileM: 16}
			}
			op, err := core.NewGEMVAllReduce(w, pes, gemvs, core.DefaultConfig())
			if err != nil {
				panic(err)
			}
			if fused {
				return runReport(pl, op.RunFused).Duration()
			}
			return runReport(pl, op.RunBaseline).Duration()
		}
		res.Rows = append(res.Rows, Row{Label: fmt.Sprintf("M=%dk", m/1024), Baseline: run(false), Fused: run(true)})
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("mean reduction %.1f%% (paper: 13%%), max %.1f%% (paper: 22%%)",
			100*res.MeanReduction(), 100*res.MaxReduction()))
	return res
}

// Fig10 regenerates the Triton GEMM + All-to-All sweep on 4 GPUs (MoE
// combine shapes). Paper: avg -12%, up to -20%, GEMM-dominated.
func Fig10(opt Options) *Result {
	type shape struct{ tokens, n, k int }
	shapes := []shape{
		{2048, 1024, 4096}, {4096, 1024, 4096},
		{4096, 2048, 8192}, {8192, 1024, 4096},
	}
	if opt.Quick {
		shapes = []shape{{2048, 1024, 4096}}
	}
	res := &Result{ID: "Fig10", Title: "fused GEMM + All-to-All (Triton), scale-up, normalized time"}
	for _, sh := range shapes {
		run := func(fused bool) sim.Duration {
			pl, w := scaleUpWorld(4)
			pes := allPEs(pl)
			gemms := make([]*kernels.GEMM, len(pes))
			for s := range pes {
				gemms[s] = &kernels.GEMM{M: sh.tokens, N: sh.n, K: sh.k, TileM: 64, TileN: 128}
			}
			op, err := core.NewGEMMAllToAll(w, pes, gemms, core.DefaultConfig())
			if err != nil {
				panic(err)
			}
			if fused {
				return runReport(pl, op.RunFused).Duration()
			}
			return runReport(pl, op.RunBaseline).Duration()
		}
		label := fmt.Sprintf("%dx%dx%d", sh.tokens, sh.n, sh.k)
		res.Rows = append(res.Rows, Row{Label: label, Baseline: run(false), Fused: run(true)})
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("mean reduction %.1f%% (paper: 12%%), max %.1f%% (paper: 20%%)",
			100*res.MeanReduction(), 100*res.MaxReduction()))
	return res
}

// Fig11 regenerates the persistent-WG timeline profile: two nodes, a
// cluster of logical WGs per slice, put issues marked while other WGs
// compute, local-slice completions after remote ones, distinct tail
// waits. A reduced device (32 persistent WGs) keeps the chart readable,
// mirroring the paper's "first 32 WGs" view.
func Fig11(opt Options) *Result {
	res, _ := Fig11WithTimeline(opt)
	return res
}

// Fig11WithTimeline is Fig11 exposing the raw recorded timeline for CSV
// export (cmd/wgprof).
func Fig11WithTimeline(opt Options) (*Result, *trace.Timeline) {
	e := sim.NewEngine()
	cfg := platform.ScaleOut(2)
	cfg.GPU.CUs = 8
	cfg.GPU.MaxWGSlotsPerCU = 5 // fused occupancy: 8x4 = 32 persistent WGs
	pl, err := platform.New(e, cfg)
	if err != nil {
		panic(err)
	}
	w := shmem.NewWorld(pl, shmem.DefaultConfig())
	pes := allPEs(pl)
	tables, batch := 8, 256
	if opt.Quick {
		tables, batch = 4, 128
	}
	sets := timingEmbeddingSets(pl, pes, tables, embDim, batch, embPooling)
	opCfg := core.DefaultConfig()
	var tl trace.Timeline
	tl.Enable()
	opCfg.Timeline = &tl
	op, err := core.NewEmbeddingAllToAll(w, pes, sets, batch, embSlice, opCfg)
	if err != nil {
		panic(err)
	}
	op.RowsPerWG = 2 // cluster of 16 logical WGs per slice, as in §IV-C
	rep := runReport(pl, op.RunFused)

	res := &Result{ID: "Fig11", Title: "profiled timeline of persistent WGs (node 0)"}
	res.Extra = tl.Gantt(100, 32)
	res.Notes = append(res.Notes,
		fmt.Sprintf("%d remote puts issued over %v kernel time", rep.RemotePuts, rep.Duration()),
		fmt.Sprintf("%d compute spans, %d local-slice completions, %d tail waits recorded",
			len(tl.ByKind(trace.Compute)), len(tl.ByKind(trace.LocalDone)), len(tl.ByKind(trace.WaitSpan))))
	// Overlap evidence: a put issued strictly before the last compute
	// span ends means communication ran under computation.
	puts := tl.ByKind(trace.PutIssue)
	computes := tl.ByKind(trace.Compute)
	if len(puts) > 0 && len(computes) > 0 {
		lastCompute := computes[len(computes)-1].End
		overlapped := 0
		for _, p := range puts {
			if p.Start < lastCompute {
				overlapped++
			}
		}
		res.Notes = append(res.Notes, fmt.Sprintf("%d/%d puts issued while computation was still in flight", overlapped, len(puts)))
	}
	return res, &tl
}

// Fig12 regenerates the inter-node fused embedding + All-to-All sweep
// (2 nodes over the NIC). Paper: avg -31%, up to -58%; small batches
// beat full overlap because the baseline's per-table kernels
// underutilize the device.
func Fig12(opt Options) *Result {
	configs := []embConfig{
		{256, 64}, {256, 128}, {512, 128}, {1024, 128},
		{1024, 256}, {2048, 256}, {4096, 256},
	}
	if opt.Quick {
		configs = []embConfig{{256, 64}, {1024, 128}}
	}
	res := &Result{ID: "Fig12", Title: "fused embedding + All-to-All, inter-node, normalized time"}
	for _, c := range configs {
		res.Rows = append(res.Rows, embeddingPoint(2, 1, c, embDim, embPooling, embSlice, core.DefaultConfig()))
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("mean reduction %.1f%% (paper: 31%%), max %.1f%% (paper: 58%%)",
			100*res.MeanReduction(), 100*res.MaxReduction()))
	return res
}

// Fig13 regenerates the occupancy sweep: fused inter-node embedding +
// All-to-All at 25/50/75/87.5%% occupancy. Paper: -46%% from 25→75%%,
// then +25%% at 87.5%% (memory contention).
func Fig13(opt Options) *Result {
	batch, tables := 1024, 256
	if opt.Quick {
		batch, tables = 512, 64
	}
	res := &Result{ID: "Fig13", Title: "impact of WG occupancy on fused kernel execution time"}
	occs := []struct {
		wgsPerCU int
		label    string
	}{{2, "25%"}, {4, "50%"}, {6, "75%"}, {7, "87.5%"}}
	var times []sim.Duration
	for _, o := range occs {
		pl, w := scaleOutWorld(2)
		pes := allPEs(pl)
		sets := timingEmbeddingSets(pl, pes, tables, embDim, batch, embPooling)
		cfg := core.DefaultConfig()
		cfg.WGsPerCU = o.wgsPerCU
		op, err := core.NewEmbeddingAllToAll(w, pes, sets, batch, embSlice, cfg)
		if err != nil {
			panic(err)
		}
		op.RowsPerWG = embSlice
		d := runReport(pl, op.RunFused).Duration()
		times = append(times, d)
		res.Rows = append(res.Rows, Row{Label: "occupancy " + o.label, Baseline: times[0], Fused: d})
	}
	if len(times) == 4 {
		res.Notes = append(res.Notes,
			fmt.Sprintf("25%%->75%%: %+.1f%% (paper: -46%%); 75%%->87.5%%: %+.1f%% (paper: +25%%)",
				100*(float64(times[2])/float64(times[0])-1),
				100*(float64(times[3])/float64(times[2])-1)))
	}
	return res
}

// Fig14 regenerates the communication-aware scheduling comparison: the
// per-node execution-time skew of the fused inter-node kernel under
// comm-aware vs oblivious logical-WG order. Paper: ~1%% vs ~7%%.
func Fig14(opt Options) *Result {
	batch, tables := 1024, 256
	// Pooling sized so the All-to-All takes roughly half the kernel
	// time — the regime where back-loaded communication under oblivious
	// scheduling surfaces as node skew.
	const pooling = 44
	if opt.Quick {
		batch, tables = 512, 64
	}
	run := func(sched core.Schedule) core.Report {
		pl, w := scaleOutWorld(2)
		pes := allPEs(pl)
		sets := timingEmbeddingSets(pl, pes, tables, embDim, batch, pooling)
		cfg := core.DefaultConfig()
		cfg.Schedule = sched
		op, err := core.NewEmbeddingAllToAll(w, pes, sets, batch, embSlice, cfg)
		if err != nil {
			panic(err)
		}
		op.RowsPerWG = embSlice
		return runReport(pl, op.RunFused)
	}
	aware := run(core.CommAware)
	obliv := run(core.Oblivious)
	res := &Result{ID: "Fig14", Title: "impact of communication-aware WG scheduling (fused, inter-node)"}
	res.Rows = append(res.Rows,
		Row{Label: "comm-aware", Baseline: obliv.Duration(), Fused: aware.Duration()},
		Row{Label: "oblivious", Baseline: obliv.Duration(), Fused: obliv.Duration()},
	)
	res.Notes = append(res.Notes,
		fmt.Sprintf("node skew: comm-aware %.1f%% (paper: ~1%%), oblivious %.1f%% (paper: ~7%%)",
			100*aware.Skew(), 100*obliv.Skew()))
	return res
}

// Fig15 regenerates the 128-node DLRM training simulation. Paper: ~21%%
// lower iteration time with fused embedding + All-to-All.
func Fig15(opt Options) *Result {
	sys := astra.DefaultSystem()
	model := astra.DefaultModel()
	if opt.Quick {
		// A 16-node torus, scaled so the embedding + All-to-All path
		// keeps its share of the iteration (fewer MLP layers shrink the
		// fixed compute and its gradient AllReduce proportionally to
		// the smaller cluster) — the overlap effect stays visible.
		sys.TorusW, sys.TorusH = 4, 4
		model.TablesPerNode = 24
		model.LocalBatch = 64
		model.MLPLayers = 12
	}
	s, err := astra.New(sys, model)
	if err != nil {
		panic(err)
	}
	base := s.TrainIteration(false)
	fused := s.TrainIteration(true)
	res := &Result{ID: "Fig15", Title: fmt.Sprintf("DLRM training iteration, %d-node 2D torus (ASTRA-Sim-style)", s.Nodes())}
	res.Rows = append(res.Rows, Row{Label: fmt.Sprintf("%d nodes", s.Nodes()), Baseline: base.Total, Fused: fused.Total})
	res.Notes = append(res.Notes,
		fmt.Sprintf("iteration time reduction %.1f%% (paper: ~21%%)", 100*res.MeanReduction()),
		fmt.Sprintf("calibrated kernel times: emb fwd %v, emb bwd %v, mlp fwd %v, mlp bwd %v, interaction %v",
			s.Times.EmbeddingFwd, s.Times.EmbeddingBwd, s.Times.MLPBottomFwd+s.Times.MLPTopFwd, s.Times.MLPBwd, s.Times.Interaction))
	return res
}

// TableI renders the system setup table.
func TableI() *Result {
	g := gpu.MI210()
	res := &Result{ID: "TableI", Title: "system setup"}
	res.Notes = append(res.Notes,
		fmt.Sprintf("GPU model: %s — %d CUs, %d WG slots/CU, HBM %.1f TB/s", g.Name, g.CUs, g.MaxWGSlotsPerCU, g.HBMBandwidth/1e12),
		"Software analogues: torch-like op registry (internal/torch), ROC_SHMEM-like world (internal/shmem), RCCL-like collectives (internal/collectives), Triton-like DSL (internal/triton)",
		fmt.Sprintf("Scale-up: 4 GPUs fully connected, %.0f GB/s per link", platform.ScaleUp(4).Fabric.LinkBandwidth/1e9),
		fmt.Sprintf("Scale-out: 2 nodes x1 GPU, NIC %.0f GB/s", platform.ScaleOut(2).NICBandwidth/1e9),
	)
	return res
}

// TableII renders the scale-out simulation setup table.
func TableII() *Result {
	m := astra.DefaultModel()
	sys := astra.DefaultSystem()
	res := &Result{ID: "TableII", Title: "scale-out simulation setup"}
	res.Notes = append(res.Notes,
		fmt.Sprintf("DLRM: embedding dim %d, MLP avg size %d x %d layers, avg pooling %d", m.EmbeddingDim, m.MLPAvgSize, m.MLPLayers, m.AvgPooling),
		fmt.Sprintf("Workload: %d tables/node, local batch %d", m.TablesPerNode, m.LocalBatch),
		fmt.Sprintf("Network: %dx%d 2D torus, %.0f Gb/s links, %v hop latency", sys.TorusW, sys.TorusH, sys.LinkBandwidth*8/1e9, sys.HopLatency),
	)
	return res
}
