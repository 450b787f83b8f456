package fusedcc

import (
	"testing"
)

// Each benchmark regenerates one artifact of the paper's evaluation
// (§IV). Iterations run the Quick-sized sweep so `go test -bench=.`
// stays tractable; cmd/fusionbench runs the full sweeps. The
// "reduction_pct" metric is the figure's headline number: the mean
// execution-time reduction of fused over baseline.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	var reduction float64
	for i := 0; i < b.N; i++ {
		res, err := RunExperimentOpt(id, SweepOptions{Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		reduction = res.MeanReduction()
	}
	b.ReportMetric(100*reduction, "reduction_pct")
}

// BenchmarkTable1SetupConstruction measures building the Table I
// systems (devices, fabric, NIC network, symmetric world).
func BenchmarkTable1SetupConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		NewScaleUp(4, Options{})
		NewScaleOut(2, Options{})
	}
}

// BenchmarkTable2ScaleOutCalibration measures assembling and rendering
// the Table II configuration (the calibration itself is measured by
// BenchmarkFig15DLRMScaleOut, which profiles every kernel).
func BenchmarkTable2ScaleOutCalibration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunExperimentOpt("table2", SweepOptions{Quick: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8EmbeddingAllToAllIntraNode — paper: avg -20%, max -32%.
func BenchmarkFig8EmbeddingAllToAllIntraNode(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig9GEMVAllReduce — paper: avg -13%, max -22%.
func BenchmarkFig9GEMVAllReduce(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10GEMMAllToAll — paper: avg -12%, max -20%.
func BenchmarkFig10GEMMAllToAll(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig11WGTimeline profiles the persistent-WG timeline capture.
func BenchmarkFig11WGTimeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunExperimentOpt("fig11", SweepOptions{Quick: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12EmbeddingAllToAllInterNode — paper: avg -31%, max -58%.
func BenchmarkFig12EmbeddingAllToAllInterNode(b *testing.B) { benchExperiment(b, "fig12") }

// BenchmarkFig13OccupancySweep — paper: -46% from 25->75%, +25% at 87.5%.
func BenchmarkFig13OccupancySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunExperimentOpt("fig13", SweepOptions{Quick: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig14SchedulingSkew — paper: ~1% skew aware vs ~7% oblivious.
func BenchmarkFig14SchedulingSkew(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunExperimentOpt("fig14", SweepOptions{Quick: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig15DLRMScaleOut — paper: ~21% lower training-iteration time.
func BenchmarkFig15DLRMScaleOut(b *testing.B) { benchExperiment(b, "fig15") }

// Ablation benches for the design choices DESIGN.md calls out.

// BenchmarkAblationZeroCopy isolates direct peer stores vs staged DMA.
func BenchmarkAblationZeroCopy(b *testing.B) { benchExperiment(b, "ablation:zerocopy") }

// BenchmarkAblationSliceSize sweeps the communication granularity.
func BenchmarkAblationSliceSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunExperimentOpt("ablation:slicesize", SweepOptions{Quick: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationOccupancyPenalty quantifies the fused kernel's
// register-pressure cost.
func BenchmarkAblationOccupancyPenalty(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunExperimentOpt("ablation:occupancy", SweepOptions{Quick: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationKernelSplit compares intra-kernel fusion against the
// kernel-decomposition alternative [58].
func BenchmarkAblationKernelSplit(b *testing.B) { benchExperiment(b, "ablation:kernelsplit") }

// Substrate micro-benchmarks: simulator throughput, since every
// experiment above is bounded by engine event rate.

// BenchmarkSimEngineEventThroughput measures raw engine handoff rate.
func BenchmarkSimEngineEventThroughput(b *testing.B) {
	sys, err := NewScaleUp(1, Options{})
	if err != nil {
		b.Fatal(err)
	}
	done := 0
	sys.Engine.Go("spin", func(p *Proc) {
		for done < b.N {
			p.Sleep(1)
			done++
		}
	})
	b.ResetTimer()
	sys.Engine.Run()
}

// BenchmarkFusedGEMVOperator measures one fused operator end to end on
// the Table I scale-up system.
func BenchmarkFusedGEMVOperator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, err := NewScaleUp(4, Options{})
		if err != nil {
			b.Fatal(err)
		}
		op, err := sys.NewGEMVAllReduce(GEMVSpec{M: 8192, K: 2048, TileM: 16, Seed: 1}, DefaultOperatorConfig())
		if err != nil {
			b.Fatal(err)
		}
		sys.Run(func(p *Proc) { op.RunFused(p) })
	}
}
