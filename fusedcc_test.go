package fusedcc

import (
	"fmt"
	"strings"
	"testing"
)

func TestScaleUpSystemRunsFusedGEMV(t *testing.T) {
	sys, err := NewScaleUp(4, Options{Functional: true})
	if err != nil {
		t.Fatal(err)
	}
	op, err := sys.NewGEMVAllReduce(GEMVSpec{M: 64, K: 16, TileM: 8, Seed: 1}, DefaultOperatorConfig())
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	sys.Run(func(p *Proc) { rep = op.RunFused(p) })
	if rep.Duration() <= 0 {
		t.Fatal("no simulated time elapsed")
	}
	out := op.Out.On(0).Data()
	nonzero := false
	for _, v := range out {
		if v != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("no output produced")
	}
}

func TestScaleOutSystemRunsFusedEmbedding(t *testing.T) {
	sys, err := NewScaleOut(2, Options{Functional: true})
	if err != nil {
		t.Fatal(err)
	}
	op, err := sys.NewEmbeddingAllToAll(EmbeddingSpec{TablesPerGPU: 2, Rows: 64, Dim: 8, GlobalBatch: 32, AvgPooling: 4, SliceRows: 4, Seed: 1}, DefaultOperatorConfig())
	if err != nil {
		t.Fatal(err)
	}
	var fusedRep Report
	sys.Run(func(p *Proc) { fusedRep = op.RunFused(p) })
	if fusedRep.RemotePuts == 0 {
		t.Error("no remote communication recorded")
	}

	// Baseline on a fresh identical system must match functionally.
	sys2, err := NewScaleOut(2, Options{Functional: true})
	if err != nil {
		t.Fatal(err)
	}
	op2, err := sys2.NewEmbeddingAllToAll(EmbeddingSpec{TablesPerGPU: 2, Rows: 64, Dim: 8, GlobalBatch: 32, AvgPooling: 4, SliceRows: 4, Seed: 1}, DefaultOperatorConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys2.Run(func(p *Proc) { op2.RunBaseline(p) })
	for pe := 0; pe < 2; pe++ {
		a, b := op.Out.On(pe).Data(), op2.Out.On(pe).Data()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("pe %d elem %d: fused %g != baseline %g", pe, i, a[i], b[i])
			}
		}
	}
}

func TestGEMMAllToAllViaFacade(t *testing.T) {
	sys, err := NewScaleUp(4, Options{Functional: true})
	if err != nil {
		t.Fatal(err)
	}
	op, err := sys.NewGEMMAllToAll(GEMMSpec{Tokens: 8, N: 12, K: 6, TileM: 4, TileN: 4, Seed: 1}, DefaultOperatorConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(func(p *Proc) { op.RunFused(p) })
	if op.Recv.On(2).Data()[0] == 0 {
		t.Error("combine output missing")
	}
}

func TestModelConstructors(t *testing.T) {
	sys, err := NewScaleUp(4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DLRMConfig()
	cfg.TablesPerGPU = 2
	cfg.GlobalBatch = 64
	cfg.SliceRows = 8
	if _, err := sys.NewDLRM(cfg, DefaultOperatorConfig()); err != nil {
		t.Errorf("DLRM: %v", err)
	}
	tc := TransformerConfig()
	tc.Hidden, tc.FFN, tc.TileM = 256, 512, 32
	if _, err := sys.NewTransformerFFN(tc, DefaultOperatorConfig()); err != nil {
		t.Errorf("FFN: %v", err)
	}
	mc := MoEConfig()
	mc.TokensPerGPU, mc.ModelDim, mc.FFNDim, mc.TileM, mc.TileN = 16, 32, 64, 4, 8
	if _, err := sys.NewMoELayer(mc, DefaultOperatorConfig()); err != nil {
		t.Errorf("MoE: %v", err)
	}
}

func TestRunExperimentDispatch(t *testing.T) {
	for _, id := range []string{"table1", "table2"} {
		res, err := RunExperimentOpt(id, SweepOptions{Quick: true})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if res.ID == "" {
			t.Errorf("%s: empty result", id)
		}
	}
	if _, err := RunExperimentOpt("fig99", SweepOptions{Quick: true}); err == nil {
		t.Error("unknown experiment must error")
	}
	if len(Experiments()) < 10 {
		t.Error("experiment catalogue incomplete")
	}
}

func TestGPUModelExposed(t *testing.T) {
	if GPUModel().CUs != 104 {
		t.Error("unexpected GPU model")
	}
}

func TestBackwardExchangeViaFacade(t *testing.T) {
	sys, err := NewScaleOut(2, Options{Functional: true})
	if err != nil {
		t.Fatal(err)
	}
	fwd, err := sys.NewEmbeddingAllToAll(EmbeddingSpec{TablesPerGPU: 2, Rows: 64, Dim: 8, GlobalBatch: 32, AvgPooling: 4, SliceRows: 4, Seed: 1}, DefaultOperatorConfig())
	if err != nil {
		t.Fatal(err)
	}
	g := NewEmbeddingGradExchange(fwd)
	// Seed gradients with the forward output shape.
	for pe := 0; pe < 2; pe++ {
		d := g.GradOut.On(pe).Data()
		for i := range d {
			d[i] = float32(pe*1000 + i)
		}
	}
	var rep Report
	sys.Run(func(p *Proc) { rep = g.RunFused(p) })
	if rep.RemotePuts == 0 {
		t.Error("backward exchange issued no puts")
	}
	if g.GradIn.On(0).Data()[0] == 0 && g.GradIn.On(1).Data()[0] == 0 {
		t.Error("no gradients delivered")
	}
}

func TestNewClusterHybridRunsFused(t *testing.T) {
	sys, err := NewCluster(2, 2, Options{Functional: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Platform.NDevices(); got != 4 {
		t.Fatalf("devices = %d, want 4", got)
	}
	op, err := sys.NewGEMVAllReduce(GEMVSpec{M: 32, K: 8, TileM: 4, Seed: 1}, DefaultOperatorConfig())
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	sys.Run(func(p *Proc) { rep = op.RunFused(p) })
	if rep.Duration() <= 0 {
		t.Fatal("no simulated time elapsed")
	}

	// Baseline on an identical cluster must agree bit-for-bit; its Auto
	// collective resolves to the hierarchical AllReduce.
	sys2, err := NewCluster(2, 2, Options{Functional: true})
	if err != nil {
		t.Fatal(err)
	}
	op2, err := sys2.NewGEMVAllReduce(GEMVSpec{M: 32, K: 8, TileM: 4, Seed: 1}, DefaultOperatorConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys2.Run(func(p *Proc) { op2.RunBaseline(p) })
	a, b := op.Out.On(0).Data(), op2.Out.On(0).Data()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("elem %d: fused %g != baseline %g", i, a[i], b[i])
		}
	}
}

func TestNewClusterRejectsBadShapes(t *testing.T) {
	if _, err := NewCluster(0, 4, Options{}); err == nil {
		t.Error("zero nodes must be an error")
	}
	if _, err := NewCluster(2, 0, Options{}); err == nil {
		t.Error("zero GPUs per node must be an error")
	}
	// A 2-node torus cannot be factored with both sides >= 2.
	if _, err := NewCluster(2, 1, Options{Topology: TopologyTorus2D}); err == nil {
		t.Error("unfactorable torus must be an error")
	}
	if sys, err := NewCluster(8, 2, Options{Topology: TopologyTorus2D}); err != nil || sys == nil {
		t.Errorf("8-node torus cluster should construct, got %v", err)
	}
}

// A RowsPerWG coarsening that does not divide SliceRows is reported at
// construction, naming both values, instead of building an operator
// whose fused run panics.
func TestEmbeddingSpecRejectsRowsPerWGNotDividingSliceRows(t *testing.T) {
	sys, err := NewScaleUp(2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := EmbeddingSpec{TablesPerGPU: 2, Rows: 64, Dim: 8, GlobalBatch: 32, AvgPooling: 4, SliceRows: 8, RowsPerWG: 3, Seed: 1}
	_, err = sys.NewEmbeddingAllToAll(spec, DefaultOperatorConfig())
	if err == nil || !strings.Contains(err.Error(), "RowsPerWG 3") || !strings.Contains(err.Error(), "SliceRows 8") {
		t.Errorf("NewEmbeddingAllToAll error = %v, want one naming RowsPerWG 3 and SliceRows 8", err)
	}
}

func TestDLRMRejectsRowsPerWGNotDividingSliceRows(t *testing.T) {
	sys, err := NewScaleUp(4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DLRMConfig()
	cfg.TablesPerGPU = 2
	cfg.GlobalBatch = 64
	cfg.SliceRows = 8
	cfg.RowsPerWG = 3
	_, err = sys.NewDLRM(cfg, DefaultOperatorConfig())
	if err == nil || !strings.Contains(err.Error(), "RowsPerWG 3") || !strings.Contains(err.Error(), "SliceRows 8") {
		t.Errorf("NewDLRM error = %v, want one naming RowsPerWG 3 and SliceRows 8", err)
	}
}

// A RowsPerWG set on the backward exchange after construction escapes
// the construction-time check; the fused run must still name both
// values when it rejects it.
func TestEmbeddingGradRowsPerWGPanicNamesValues(t *testing.T) {
	sys, err := NewScaleUp(2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := EmbeddingSpec{TablesPerGPU: 2, Rows: 64, Dim: 8, GlobalBatch: 32, AvgPooling: 4, SliceRows: 8, Seed: 1}
	fwd, err := sys.NewEmbeddingAllToAll(spec, DefaultOperatorConfig())
	if err != nil {
		t.Fatal(err)
	}
	g := NewEmbeddingGradExchange(fwd)
	g.RowsPerWG = 3
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "RowsPerWG 3 must divide SliceRows 8") {
			t.Errorf("RunFused panic = %v, want one naming RowsPerWG 3 and SliceRows 8", r)
		}
	}()
	sys.Run(func(p *Proc) { g.RunFused(p) })
}
