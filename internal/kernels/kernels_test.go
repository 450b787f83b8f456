package kernels

import (
	"math"
	"testing"
	"testing/quick"

	"fusedcc/internal/gpu"
	"fusedcc/internal/sim"
	"fusedcc/internal/workload"
)

func testDev(e *sim.Engine) *gpu.Device {
	return gpu.NewDevice(e, 0, gpu.Config{
		Name: "t", CUs: 4, MaxWGSlotsPerCU: 2,
		HBMBandwidth: 1e9, PerWGStreamBandwidth: 0.5e9,
		GatherEfficiency: 0.5, FlopsPerCU: 1e9,
		KernelLaunchOverhead: sim.Microsecond, Functional: true,
	})
}

func run(e *sim.Engine, fn func(p *sim.Proc)) sim.Time {
	e.Go("host", fn)
	return e.Run()
}

// --- Embedding ---

func TestEmbeddingBagSumMatchesReference(t *testing.T) {
	e := sim.NewEngine()
	dev := testDev(e)
	rng := workload.Rand(1)
	const rows, dim, batch = 50, 8, 12
	tab := NewEmbeddingTable(dev, rows, dim)
	workload.FillRandom(rng, tab.Weights)
	csr := workload.Lookups(rng, batch, rows, 4)
	bag := &EmbeddingBag{Table: tab, Batch: batch, AvgPooling: 4, Offsets: csr.Offsets, Indices: csr.Indices}
	out := dev.Alloc(batch * dim)
	run(e, func(p *sim.Proc) { bag.Run(p, dev, out, 0, 0) })

	for b := 0; b < batch; b++ {
		want := make([]float64, dim)
		for _, idx := range csr.Indices[csr.Offsets[b]:csr.Offsets[b+1]] {
			for i, v := range tab.Row(int(idx)) {
				want[i] += float64(v)
			}
		}
		got := out.Slice(b*dim, dim)
		for i := range want {
			if math.Abs(float64(got[i])-want[i]) > 1e-4 {
				t.Fatalf("row %d elem %d: got %g want %g", b, i, got[i], want[i])
			}
		}
	}
}

func TestEmbeddingBagMean(t *testing.T) {
	e := sim.NewEngine()
	dev := testDev(e)
	tab := NewEmbeddingTable(dev, 4, 2)
	copy(tab.Weights.Data(), []float32{1, 2, 3, 4, 5, 6, 7, 8})
	bag := &EmbeddingBag{
		Table: tab, Batch: 1, AvgPooling: 2, Mean: true,
		Offsets: []int32{0, 2}, Indices: []int32{0, 2},
	}
	out := dev.Alloc(2)
	run(e, func(p *sim.Proc) { bag.Run(p, dev, out, 0, 0) })
	if out.Data()[0] != 3 || out.Data()[1] != 4 { // mean of (1,2) and (5,6)
		t.Fatalf("mean pooling got %v", out.Data())
	}
}

func TestEmbeddingBagCostScalesWithPooling(t *testing.T) {
	timeFor := func(pooling float64) sim.Time {
		e := sim.NewEngine()
		dev := testDev(e)
		tab := &EmbeddingTable{Rows: 1000, Dim: 64, Weights: dev.Alloc(0)}
		bag := &EmbeddingBag{Table: tab, Batch: 64, AvgPooling: pooling}
		out := dev.Alloc(0)
		return run(e, func(p *sim.Proc) { bag.Run(p, dev, out, 0, 0) })
	}
	t1, t2 := timeFor(8), timeFor(16)
	if t2 <= t1 {
		t.Fatalf("doubling pooling should cost more: %v vs %v", t1, t2)
	}
	ratio := float64(t2) / float64(t1)
	if ratio < 1.5 || ratio > 2.5 {
		t.Errorf("pooling cost ratio = %g, want ~2 (gather dominated)", ratio)
	}
}

func TestEmbeddingBagValidate(t *testing.T) {
	tab := &EmbeddingTable{Rows: 10, Dim: 4}
	cases := []struct {
		name string
		bag  EmbeddingBag
		ok   bool
	}{
		{"timing ok", EmbeddingBag{Table: tab, Batch: 4, AvgPooling: 2}, true},
		{"zero batch", EmbeddingBag{Table: tab, Batch: 0, AvgPooling: 2}, false},
		{"no pooling", EmbeddingBag{Table: tab, Batch: 4}, false},
		{"bad offsets", EmbeddingBag{Table: tab, Batch: 4, Offsets: []int32{0, 1}}, false},
		{"offset/index mismatch", EmbeddingBag{Table: tab, Batch: 1, Offsets: []int32{0, 2}, Indices: []int32{1}}, false},
		{"csr ok", EmbeddingBag{Table: tab, Batch: 1, Offsets: []int32{0, 1}, Indices: []int32{1}}, true},
	}
	for _, c := range cases {
		err := c.bag.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: err=%v ok=%v", c.name, err, c.ok)
		}
	}
}

func TestEmbeddingSetPerTableLaunchOverhead(t *testing.T) {
	e := sim.NewEngine()
	dev := testDev(e)
	var bags []*EmbeddingBag
	for i := 0; i < 8; i++ {
		bags = append(bags, &EmbeddingBag{
			Table: &EmbeddingTable{Rows: 100, Dim: 16, Weights: dev.Alloc(0)},
			Batch: 4, AvgPooling: 2,
		})
	}
	set := &EmbeddingSet{Bags: bags}
	out := dev.Alloc(set.OutputLen())
	run(e, func(p *sim.Proc) { set.RunPerTable(p, dev, out, 0) })
	if got := dev.KernelsLaunched(); got != 8 {
		t.Errorf("per-table baseline launched %d kernels, want 8", got)
	}
}

// --- GEMV ---

func TestGEMVMatchesReference(t *testing.T) {
	e := sim.NewEngine()
	dev := testDev(e)
	rng := workload.Rand(2)
	const M, K = 37, 19
	g := &GEMV{M: M, K: K, TileM: 8, W: dev.Alloc(M * K), X: dev.Alloc(K), Y: dev.Alloc(M)}
	workload.FillRandom(rng, g.W)
	workload.FillRandom(rng, g.X)
	run(e, func(p *sim.Proc) { g.Run(p, dev, 0) })
	for m := 0; m < M; m++ {
		var want float64
		for k := 0; k < K; k++ {
			want += float64(g.W.Data()[m*K+k]) * float64(g.X.Data()[k])
		}
		if got := float64(g.Y.Data()[m]); math.Abs(got-want) > 1e-4 {
			t.Fatalf("y[%d] = %g, want %g", m, got, want)
		}
	}
}

func TestGEMVTileRanges(t *testing.T) {
	g := &GEMV{M: 100, K: 4, TileM: 32}
	if g.Tiles() != 4 {
		t.Fatalf("tiles = %d, want 4", g.Tiles())
	}
	lo, hi := g.TileRange(3)
	if lo != 96 || hi != 100 {
		t.Errorf("last tile = [%d,%d), want [96,100)", lo, hi)
	}
}

func TestGEMVMemoryBound(t *testing.T) {
	// Time should be ~ M*K*4 / HBM bandwidth for a big GEMV.
	e := sim.NewEngine()
	dev := testDev(e)
	const M, K = 4096, 256
	g := &GEMV{M: M, K: K, TileM: 256}
	end := run(e, func(p *sim.Proc) { g.Run(p, dev, 0) })
	weightTime := sim.TransferTime(float64(M*K)*4, 1e9)
	if end < sim.Time(weightTime) {
		t.Errorf("GEMV finished in %v, faster than weight streaming %v", end, weightTime)
	}
	if end > sim.Time(3*weightTime) {
		t.Errorf("GEMV took %v, want near memory bound %v", end, weightTime)
	}
}

// --- GEMM ---

func TestGEMMMatchesReference(t *testing.T) {
	e := sim.NewEngine()
	dev := testDev(e)
	rng := workload.Rand(3)
	const M, N, K = 17, 13, 9
	g := &GEMM{M: M, N: N, K: K, TileM: 8, TileN: 4,
		A: dev.Alloc(M * K), B: dev.Alloc(K * N), C: dev.Alloc(M * N)}
	workload.FillRandom(rng, g.A)
	workload.FillRandom(rng, g.B)
	run(e, func(p *sim.Proc) { g.Run(p, dev, 0) })
	for m := 0; m < M; m++ {
		for n := 0; n < N; n++ {
			var want float64
			for k := 0; k < K; k++ {
				want += float64(g.A.Data()[m*K+k]) * float64(g.B.Data()[k*N+n])
			}
			if got := float64(g.C.Data()[m*N+n]); math.Abs(got-want) > 1e-4 {
				t.Fatalf("C[%d,%d] = %g, want %g", m, n, got, want)
			}
		}
	}
}

func TestGEMMTileRectCoversMatrixExactly(t *testing.T) {
	f := func(ms, ns, tms, tns uint8) bool {
		M, N := int(ms)%50+1, int(ns)%50+1
		TM, TN := int(tms)%8+1, int(tns)%8+1
		g := &GEMM{M: M, N: N, K: 1, TileM: TM, TileN: TN}
		covered := make([]bool, M*N)
		for t := 0; t < g.Tiles(); t++ {
			mlo, mhi, nlo, nhi := g.TileRect(t)
			for m := mlo; m < mhi; m++ {
				for n := nlo; n < nhi; n++ {
					if covered[m*N+n] {
						return false // overlap
					}
					covered[m*N+n] = true
				}
			}
		}
		for _, c := range covered {
			if !c {
				return false // gap
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestGEMMComputeBoundForLargeK(t *testing.T) {
	e := sim.NewEngine()
	dev := testDev(e)
	const M, N, K = 256, 256, 2048
	g := &GEMM{M: M, N: N, K: K, TileM: 64, TileN: 64}
	end := run(e, func(p *sim.Proc) { g.Run(p, dev, 0) })
	flopTime := sim.TransferTime(g.FlopCount(), 4e9) // 4 CUs x 1e9
	if end < sim.Time(flopTime) {
		t.Errorf("GEMM finished in %v, faster than ALU bound %v", end, flopTime)
	}
	if end > sim.Time(4*flopTime) {
		t.Errorf("GEMM took %v, want near ALU bound %v (compute dominated)", end, flopTime)
	}
}

// --- Elementwise & MLP ---

func TestReLUFunctional(t *testing.T) {
	e := sim.NewEngine()
	dev := testDev(e)
	b := dev.Alloc(6)
	copy(b.Data(), []float32{-1, 2, -3, 4, 0, -0.5})
	run(e, func(p *sim.Proc) { ReLU(p, dev, b, 0, 6) })
	want := []float32{0, 2, 0, 4, 0, 0}
	for i, v := range b.Data() {
		if v != want[i] {
			t.Fatalf("relu[%d] = %g, want %g", i, v, want[i])
		}
	}
}

// TestGridEffectsLandAtLastCompletion: a grid kernel's functional
// result becomes visible when the item's last charge (its Write)
// completes, not when the body runs: a reader 1 ns before sees the old
// values, one at the completion instant the new ones.
func TestGridEffectsLandAtLastCompletion(t *testing.T) {
	kernels := []struct {
		name   string
		launch func(p *sim.Proc, dev *gpu.Device, out *gpu.Buffer)
	}{
		{"relu", func(p *sim.Proc, dev *gpu.Device, out *gpu.Buffer) { ReLU(p, dev, out, 0, out.Len()) }},
		{"gemm", func(p *sim.Proc, dev *gpu.Device, out *gpu.Buffer) {
			a, b := dev.Alloc(4*8), dev.Alloc(8*4)
			a.Fill(1)
			b.Fill(1)
			(&GEMM{M: 4, N: 4, K: 8, TileM: 4, TileN: 4, A: a, B: b, C: out}).Run(p, dev, 0)
		}},
	}
	for _, k := range kernels {
		// setup returns a fresh engine with the kernel launched at time
		// 0 over a buffer of -1s, and the buffer.
		setup := func() (*sim.Engine, *gpu.Buffer) {
			e := sim.NewEngine()
			dev := testDev(e)
			out := dev.Alloc(16)
			out.Fill(-1)
			e.Go("host", func(p *sim.Proc) { k.launch(p, dev, out) })
			return e, out
		}
		e, _ := setup()
		end := e.Run() // one item: the kernel ends when its Write completes
		e, out := setup()
		var before, at float32
		e.Go("reader", func(p *sim.Proc) {
			p.Sleep(sim.Duration(end) - 1)
			before = out.Data()[0]
			p.Sleep(1)
			p.Yield() // behind the completion's same-instant continuation
			if p.Now() != end {
				t.Fatalf("%s: reader at %v, want %v", k.name, p.Now(), end)
			}
			at = out.Data()[0]
		})
		e.Run()
		if before != -1 || at == -1 {
			t.Errorf("%s: out[0] = %g at 1 ns before the last completion and %g at it; want -1, then the result", k.name, before, at)
		}
	}
}

func TestAddIntoFunctional(t *testing.T) {
	e := sim.NewEngine()
	dev := testDev(e)
	a, b := dev.Alloc(4), dev.Alloc(4)
	a.Fill(1)
	b.Fill(2)
	run(e, func(p *sim.Proc) { AddInto(p, dev, a, 0, b, 0, 4) })
	for _, v := range a.Data() {
		if v != 3 {
			t.Fatalf("addinto got %v", a.Data())
		}
	}
}

func TestChunkPartition(t *testing.T) {
	n, grid := 100, 7
	seen := 0
	for l := 0; l < grid; l++ {
		lo, hi := chunk(n, grid, l)
		seen += hi - lo
	}
	if seen != n {
		t.Fatalf("chunks cover %d, want %d", seen, n)
	}
}

func TestMLPForwardAndParams(t *testing.T) {
	m := &MLP{Widths: []int{64, 128, 32}, Batch: 1}
	if m.Layers() != 2 {
		t.Fatalf("layers = %d", m.Layers())
	}
	if m.Params() != 64*128+128*32 {
		t.Fatalf("params = %d", m.Params())
	}
	e := sim.NewEngine()
	dev := testDev(e)
	end := run(e, func(p *sim.Proc) { m.Forward(p, dev) })
	if end <= 0 {
		t.Fatal("MLP forward must take time")
	}
	if m.ForwardFlops() != 2*float64(m.Params()) {
		t.Errorf("flops = %g", m.ForwardFlops())
	}
}

func TestMLPBatchUsesGEMM(t *testing.T) {
	// A batched MLP must cost more than batch=1 (GEMM vs GEMV path).
	timeFor := func(batch int) sim.Time {
		e := sim.NewEngine()
		dev := testDev(e)
		m := &MLP{Widths: []int{256, 256}, Batch: batch}
		return run(e, func(p *sim.Proc) { m.Forward(p, dev) })
	}
	if timeFor(64) <= timeFor(1) {
		t.Error("batched forward should cost more than single-vector forward")
	}
}

// --- Workload generators ---

func TestLookupsShape(t *testing.T) {
	rng := workload.Rand(7)
	csr := workload.Lookups(rng, 100, 1000, 10)
	if len(csr.Offsets) != 101 {
		t.Fatalf("offsets len = %d", len(csr.Offsets))
	}
	if int(csr.Offsets[100]) != len(csr.Indices) {
		t.Fatal("CSR inconsistent")
	}
	for b := 0; b < 100; b++ {
		if csr.Offsets[b+1] <= csr.Offsets[b] {
			t.Fatal("empty bag generated")
		}
	}
	for _, idx := range csr.Indices {
		if idx < 0 || idx >= 1000 {
			t.Fatalf("index %d out of range", idx)
		}
	}
}

func TestLookupsDeterministic(t *testing.T) {
	a := workload.Lookups(workload.Rand(42), 10, 100, 5)
	b := workload.Lookups(workload.Rand(42), 10, 100, 5)
	if len(a.Indices) != len(b.Indices) {
		t.Fatal("nondeterministic generator")
	}
	for i := range a.Indices {
		if a.Indices[i] != b.Indices[i] {
			t.Fatal("nondeterministic generator")
		}
	}
}

func TestFixedLookupsPooling(t *testing.T) {
	csr := workload.FixedLookups(workload.Rand(1), 5, 100, 7)
	for b := 0; b < 5; b++ {
		if csr.Offsets[b+1]-csr.Offsets[b] != 7 {
			t.Fatal("fixed pooling violated")
		}
	}
}
