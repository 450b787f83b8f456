package torch

import (
	"strings"
	"testing"

	"fusedcc/internal/core"
	"fusedcc/internal/gpu"
	"fusedcc/internal/kernels"
	"fusedcc/internal/platform"
	"fusedcc/internal/shmem"
	"fusedcc/internal/sim"
	"fusedcc/internal/workload"
)

func testFramework(e *sim.Engine) (*platform.Platform, *Framework) {
	cfg := platform.Config{
		Nodes:       1,
		GPUsPerNode: 4,
		GPU: gpu.Config{
			Name: "t", CUs: 8, MaxWGSlotsPerCU: 4,
			HBMBandwidth: 32e9, PerWGStreamBandwidth: 2e9,
			GatherEfficiency: 0.5, FlopsPerCU: 4e9,
			KernelLaunchOverhead: 8 * sim.Microsecond, Functional: true,
		},
	}
	cfg.Fabric.LinkBandwidth = 8e9
	cfg.Fabric.StoreLatency = 700
	cfg.Fabric.PerWGStoreBandwidth = 2e9
	pl, err := platform.New(e, cfg)
	if err != nil {
		panic(err)
	}
	return pl, New(shmem.NewWorld(pl, shmem.DefaultConfig()))
}

func TestTensorShapeAndData(t *testing.T) {
	e := sim.NewEngine()
	pl, _ := testFramework(e)
	ten, err := NewTensor(pl.Device(0), 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if ten.Numel() != 32 {
		t.Fatalf("numel = %d", ten.Numel())
	}
	if got := ten.Shape(); got[0] != 4 || got[1] != 8 {
		t.Fatalf("shape = %v", got)
	}
	host := make([]float32, 32)
	for i := range host {
		host[i] = float32(i)
	}
	if err := ten.CopyFromHost(host); err != nil {
		t.Fatal(err)
	}
	if ten.Buffer().Data()[31] != 31 {
		t.Error("host copy failed")
	}
	if err := ten.CopyFromHost(host[:3]); err == nil {
		t.Error("length mismatch must be an error")
	}
}

func TestSymmetricEmptyAllocatesEveryPE(t *testing.T) {
	e := sim.NewEngine()
	_, f := testFramework(e)
	st, err := f.SymmetricEmpty(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	for pe := 0; pe < f.World().NPEs(); pe++ {
		if st.On(pe).Len() != 32 {
			t.Fatalf("PE %d len = %d", pe, st.On(pe).Len())
		}
	}
	if st.Shape()[0] != 16 {
		t.Error("shape lost")
	}
}

func TestBuiltinOpsRegistered(t *testing.T) {
	e := sim.NewEngine()
	_, f := testFramework(e)
	names := strings.Join(f.Ops(), ",")
	for _, want := range []string{
		"fused::embedding_all2all", "rccl::embedding_all2all",
		"fused::gemv_allreduce", "rccl::gemv_allreduce",
		"fused::gemm_all2all", "rccl::gemm_all2all",
	} {
		if !strings.Contains(names, want) {
			t.Errorf("missing builtin %q (have %s)", want, names)
		}
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	e := sim.NewEngine()
	_, f := testFramework(e)
	if err := f.Register("custom::op", func(p *sim.Proc, a map[string]any) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	if err := f.Register("custom::op", nil); err == nil {
		t.Fatal("duplicate registration must fail")
	}
}

func TestCallUnknownOp(t *testing.T) {
	e := sim.NewEngine()
	_, f := testFramework(e)
	if _, err := f.Call(nil, "no::such", nil); err == nil {
		t.Fatal("want error for unknown op")
	}
}

func TestCallFusedGEMVThroughRegistry(t *testing.T) {
	e := sim.NewEngine()
	pl, f := testFramework(e)
	pes := []int{0, 1, 2, 3}
	gemvs := make([]*kernels.GEMV, 4)
	for s, pe := range pes {
		rng := workload.Rand(int64(s))
		dev := pl.Device(pe)
		g := &kernels.GEMV{M: 64, K: 16, TileM: 8,
			W: dev.Alloc(64 * 16), X: dev.Alloc(16)}
		workload.FillRandom(rng, g.W)
		workload.FillRandom(rng, g.X)
		gemvs[s] = g
	}
	op, err := f.BuildGEMVAllReduce(pes, gemvs, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var rep any
	e.Go("host", func(p *sim.Proc) {
		var callErr error
		rep, callErr = f.Call(p, "fused::gemv_allreduce", map[string]any{"op": op})
		if callErr != nil {
			t.Error(callErr)
		}
	})
	e.Run()
	r, ok := rep.(core.Report)
	if !ok {
		t.Fatalf("result type %T", rep)
	}
	if r.Duration() <= 0 {
		t.Error("no time elapsed")
	}
	if op.Out.On(0).Data()[0] == 0 {
		t.Error("output not produced")
	}
}

func TestCallMissingAttr(t *testing.T) {
	e := sim.NewEngine()
	_, f := testFramework(e)
	e.Go("host", func(p *sim.Proc) {
		if _, err := f.Call(p, "fused::gemv_allreduce", map[string]any{}); err == nil {
			t.Error("want error for missing op attribute")
		}
		if _, err := f.Call(p, "fused::gemv_allreduce", map[string]any{"op": 42}); err == nil {
			t.Error("want error for mistyped op attribute")
		}
		// Every entry checks its own operator type: another pair
		// operator is rejected before it runs.
		for _, name := range []string{"fused::gemv_allreduce", "rccl::gemv_allreduce"} {
			if _, err := f.Call(p, name, map[string]any{"op": &core.EmbeddingAllToAll{}}); err == nil {
				t.Errorf("%s accepted an *EmbeddingAllToAll", name)
			}
		}
	})
	e.Run()
}

func TestBadShapeErrors(t *testing.T) {
	e := sim.NewEngine()
	pl, f := testFramework(e)
	if _, err := NewTensor(pl.Device(0), 4, 0); err == nil {
		t.Error("NewTensor with a zero dim must error")
	}
	if _, err := NewTensor(pl.Device(0), -1); err == nil {
		t.Error("NewTensor with a negative dim must error")
	}
	if _, err := f.SymmetricEmpty(0, 8); err == nil {
		t.Error("SymmetricEmpty with a zero dim must error")
	}
}
