package collectives

import (
	"math"
	"testing"

	"fusedcc/internal/gpu"
	"fusedcc/internal/platform"
	"fusedcc/internal/shmem"
	"fusedcc/internal/sim"
	"fusedcc/internal/workload"
)

func testPlatform(e *sim.Engine, nodes, gpusPerNode int) *platform.Platform {
	cfg := platform.Config{
		Nodes:       nodes,
		GPUsPerNode: gpusPerNode,
		GPU: gpu.Config{
			Name: "t", CUs: 4, MaxWGSlotsPerCU: 2,
			HBMBandwidth: 8e9, PerWGStreamBandwidth: 2e9,
			GatherEfficiency: 0.5, FlopsPerCU: 1e9,
			KernelLaunchOverhead: sim.Microsecond, Functional: true,
		},
	}
	if gpusPerNode > 1 {
		cfg.Fabric.LinkBandwidth = 1e9
		cfg.Fabric.StoreLatency = 100
		cfg.Fabric.PerWGStoreBandwidth = 0.25e9
	}
	if nodes > 1 {
		cfg.NICBandwidth = 1e9
		cfg.NICLatency = 2 * sim.Microsecond
	}
	pl, err := platform.New(e, cfg)
	if err != nil {
		panic(err)
	}
	return pl
}

func allPEs(pl *platform.Platform) []int {
	pes := make([]int, pl.NDevices())
	for i := range pes {
		pes[i] = i
	}
	return pes
}

func setup(t *testing.T, nodes, gpn int) (*sim.Engine, *platform.Platform, *shmem.World, *Comm) {
	t.Helper()
	e := sim.NewEngine()
	pl := testPlatform(e, nodes, gpn)
	w := shmem.NewWorld(pl, shmem.DefaultConfig())
	return e, pl, w, New(pl, allPEs(pl))
}

func fillRank(data *shmem.Symm, pe int, base float32) {
	d := data.On(pe).Data()
	for i := range d {
		d[i] = base + float32(i)
	}
}

func TestAllReduceDirectCorrect(t *testing.T) {
	e, pl, w, c := setup(t, 1, 4)
	const n = 64
	data := w.Malloc(n)
	for pe := 0; pe < pl.NDevices(); pe++ {
		fillRank(data, pe, float32(pe+1))
	}
	e.Go("coord", func(p *sim.Proc) { c.AllReduceDirect(p, data, 0, n) })
	e.Run()
	// want[i] = sum over pe of (pe+1+i) = 10 + 4i for 4 ranks.
	for pe := 0; pe < 4; pe++ {
		d := data.On(pe).Data()
		for i := range d {
			want := float32(10 + 4*i)
			if d[i] != want {
				t.Fatalf("rank %d elem %d = %g, want %g", pe, i, d[i], want)
			}
		}
	}
}

func TestAllReduceRingCorrect(t *testing.T) {
	e, pl, w, c := setup(t, 1, 4)
	const n = 40
	data := w.Malloc(n)
	for pe := 0; pe < pl.NDevices(); pe++ {
		fillRank(data, pe, float32(2*pe))
	}
	e.Go("coord", func(p *sim.Proc) { c.AllReduceRing(p, data, 0, n) })
	e.Run()
	for pe := 0; pe < 4; pe++ {
		d := data.On(pe).Data()
		for i := range d {
			want := float32(0+2+4+6) + 4*float32(i)
			if d[i] != want {
				t.Fatalf("rank %d elem %d = %g, want %g", pe, i, d[i], want)
			}
		}
	}
}

func TestAllReduceRingVsDirectTiming(t *testing.T) {
	// On fully-connected GPUs the direct algorithm should not be slower
	// than the ring for equal payloads (fewer serialized steps).
	timeOf := func(f func(c *Comm, p *sim.Proc, data *shmem.Symm)) sim.Time {
		e := sim.NewEngine()
		pl := testPlatform(e, 1, 4)
		w := shmem.NewWorld(pl, shmem.DefaultConfig())
		c := New(pl, allPEs(pl))
		data := w.Malloc(1 << 20)
		e.Go("coord", func(p *sim.Proc) { f(c, p, data) })
		return e.Run()
	}
	ring := timeOf(func(c *Comm, p *sim.Proc, d *shmem.Symm) { c.AllReduceRing(p, d, 0, 1<<20) })
	direct := timeOf(func(c *Comm, p *sim.Proc, d *shmem.Symm) { c.AllReduceDirect(p, d, 0, 1<<20) })
	if direct > ring {
		t.Errorf("direct %v slower than ring %v on fully-connected node", direct, ring)
	}
}

func TestAllToAllCorrectIntraNode(t *testing.T) {
	e, pl, w, c := setup(t, 1, 4)
	const cnt = 8
	k := pl.NDevices()
	send := w.Malloc(k * cnt)
	recv := w.Malloc(k * cnt)
	for pe := 0; pe < k; pe++ {
		d := send.On(pe).Data()
		for i := range d {
			d[i] = float32(pe*1000 + i)
		}
	}
	e.Go("coord", func(p *sim.Proc) { c.AllToAllFlat(p, send, recv, cnt) })
	e.Run()
	for dst := 0; dst < k; dst++ {
		d := recv.On(dst).Data()
		for src := 0; src < k; src++ {
			for i := 0; i < cnt; i++ {
				want := float32(src*1000 + dst*cnt + i)
				if got := d[src*cnt+i]; got != want {
					t.Fatalf("dst %d block %d elem %d = %g, want %g", dst, src, i, got, want)
				}
			}
		}
	}
}

func TestAllToAllCorrectInterNode(t *testing.T) {
	e, _, w, c := setup(t, 2, 1)
	const cnt = 16
	send := w.Malloc(2 * cnt)
	recv := w.Malloc(2 * cnt)
	for pe := 0; pe < 2; pe++ {
		d := send.On(pe).Data()
		for i := range d {
			d[i] = float32(100*pe + i)
		}
	}
	e.Go("coord", func(p *sim.Proc) { c.AllToAllFlat(p, send, recv, cnt) })
	e.Run()
	if got, want := recv.On(1).Data()[0], float32(0*100+1*cnt+0); got != want {
		t.Errorf("cross-node block wrong: got %g want %g", got, want)
	}
	if got, want := recv.On(0).Data()[cnt], float32(100+0); got != want {
		t.Errorf("cross-node block wrong: got %g want %g", got, want)
	}
}

func TestAllToAllTimeScalesWithPayload(t *testing.T) {
	timeOf := func(cnt int) sim.Time {
		e := sim.NewEngine()
		pl := testPlatform(e, 2, 1)
		w := shmem.NewWorld(pl, shmem.DefaultConfig())
		c := New(pl, allPEs(pl))
		send, recv := w.Malloc(2*cnt), w.Malloc(2*cnt)
		e.Go("coord", func(p *sim.Proc) { c.AllToAllFlat(p, send, recv, cnt) })
		return e.Run()
	}
	t1, t2 := timeOf(1<<18), timeOf(1<<19)
	if t2 <= t1 {
		t.Errorf("doubling payload must cost more: %v vs %v", t1, t2)
	}
}

func TestReduceScatterCorrect(t *testing.T) {
	e, pl, w, c := setup(t, 1, 4)
	const n = 16 // 4 elems per shard
	data := w.Malloc(n)
	for pe := 0; pe < pl.NDevices(); pe++ {
		fillRank(data, pe, float32(pe))
	}
	e.Go("coord", func(p *sim.Proc) { c.ReduceScatter(p, data, 0, n) })
	e.Run()
	for r := 0; r < 4; r++ {
		d := data.On(r).Data()
		for i := r * 4; i < r*4+4; i++ {
			want := float32(0+1+2+3) + 4*float32(i)
			if d[i] != want {
				t.Fatalf("rank %d shard elem %d = %g, want %g", r, i, d[i], want)
			}
		}
	}
}

func TestAllGatherCorrect(t *testing.T) {
	e, _, w, c := setup(t, 1, 4)
	const n = 16
	data := w.Malloc(n)
	for r := 0; r < 4; r++ {
		d := data.On(r).Data()
		for i := r * 4; i < r*4+4; i++ {
			d[i] = float32(100*r + i)
		}
	}
	e.Go("coord", func(p *sim.Proc) { c.AllGather(p, data, 0, n) })
	e.Run()
	for dst := 0; dst < 4; dst++ {
		d := data.On(dst).Data()
		for r := 0; r < 4; r++ {
			for i := r * 4; i < r*4+4; i++ {
				want := float32(100*r + i)
				if d[i] != want {
					t.Fatalf("dst %d elem %d = %g, want %g", dst, i, d[i], want)
				}
			}
		}
	}
}

func TestDirectAllReduceBandwidthSanity(t *testing.T) {
	// 4 ranks, n elements: direct moves 2*(k-1)/k*n elements per rank over
	// its links. With 1 GB/s links and per-shard concurrency, check the
	// total is within 3x of the analytic lower bound.
	e, _, w, c := setup(t, 1, 4)
	const n = 1 << 20
	data := w.Malloc(n)
	e.Go("coord", func(p *sim.Proc) { c.AllReduceDirect(p, data, 0, n) })
	end := e.Run()
	perRankBytes := 2.0 * 3.0 / 4.0 * float64(n) * 4 / 3.0 // spread over 3 links
	lower := sim.TransferTime(perRankBytes, 1e9)
	if end < sim.Time(lower) {
		t.Errorf("allreduce %v faster than link bound %v", end, lower)
	}
	if end > sim.Time(3*lower) {
		t.Errorf("allreduce %v much slower than bound %v", end, lower)
	}
}

func TestCommValidation(t *testing.T) {
	e := sim.NewEngine()
	pl := testPlatform(e, 1, 2)
	for _, pes := range [][]int{{}, {0, 0}, {0, 5}} {
		func() {
			defer func() { recover() }()
			New(pl, pes)
			t.Errorf("New(%v) should panic", pes)
		}()
	}
	c := New(pl, []int{1, 0})
	if c.Size() != 2 || c.PE(0) != 1 {
		t.Error("rank order must follow the PE list")
	}
}

func TestSingleRankCollectivesAreNoOps(t *testing.T) {
	e := sim.NewEngine()
	pl := testPlatform(e, 1, 1)
	w := shmem.NewWorld(pl, shmem.DefaultConfig())
	c := New(pl, []int{0})
	data := w.Malloc(8)
	fillRank(data, 0, 1)
	e.Go("coord", func(p *sim.Proc) {
		c.AllReduceDirect(p, data, 0, 8)
		c.AllReduceRing(p, data, 0, 8)
		c.AllGather(p, data, 0, 8)
		c.ReduceScatter(p, data, 0, 8)
	})
	end := e.Run()
	if end != 0 {
		t.Errorf("single-rank collectives should be free, took %v", end)
	}
	if data.On(0).Data()[3] != 4 {
		t.Error("data corrupted")
	}
}

func TestShardPartition(t *testing.T) {
	e := sim.NewEngine()
	pl := testPlatform(e, 1, 4)
	c := New(pl, allPEs(pl))
	covered := 0
	for r := 0; r < 4; r++ {
		lo, hi := c.shard(10, r)
		covered += hi - lo
	}
	if covered != 10 {
		t.Fatalf("shards cover %d of 10", covered)
	}
}

func TestAllReduceTimingMode(t *testing.T) {
	// Timing-only buffers must not break collectives.
	e := sim.NewEngine()
	cfg := platform.ScaleUp(4)
	cfg.GPU.Functional = false
	pl, err := platform.New(e, cfg)
	if err != nil {
		panic(err)
	}
	w := shmem.NewWorld(pl, shmem.DefaultConfig())
	c := New(pl, allPEs(pl))
	data := w.Malloc(1 << 20)
	e.Go("coord", func(p *sim.Proc) { c.AllReduceDirect(p, data, 0, 1<<20) })
	if end := e.Run(); end <= 0 {
		t.Error("timing-mode allreduce took no time")
	}
}

func TestWorkloadFillRandomRange(t *testing.T) {
	e := sim.NewEngine()
	pl := testPlatform(e, 1, 1)
	b := pl.Device(0).Alloc(256)
	workload.FillRandom(workload.Rand(3), b)
	for _, v := range b.Data() {
		if math.Abs(float64(v)) > 1 {
			t.Fatalf("value %g out of [-1,1]", v)
		}
	}
}

// TestAllToAllSubChunksComposeToFull verifies that running the strided
// sub-block exchange once per chunk reproduces exactly the full
// AllToAll — the bit-exactness contract of the pipelined execution mode
// — on flat and hierarchical layouts.
func TestAllToAllSubChunksComposeToFull(t *testing.T) {
	shapes := []struct {
		name       string
		nodes, gpn int
		algo       Algo
		chunks     int
	}{
		{"flat-1x4-K2", 1, 4, Flat, 2},
		{"flat-4x1-K3", 4, 1, Flat, 3},
		{"hier-2x2-K2", 2, 2, Hierarchical, 2},
	}
	for _, sh := range shapes {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			const stride = 12
			// Reference: full AllToAll.
			e, pl, w, c := setup(t, sh.nodes, sh.gpn)
			k := len(allPEs(pl))
			send, recv := w.Malloc(k*stride), w.Malloc(k*stride)
			for _, pe := range allPEs(pl) {
				fillRank(send, pe, float32(100*pe))
			}
			e.Go("full", func(p *sim.Proc) { c.AllToAll(p, send, recv, stride, sh.algo) })
			e.Run()
			want := make([][]float32, k)
			for _, pe := range allPEs(pl) {
				want[pe] = append([]float32(nil), recv.On(pe).Data()...)
			}

			// Chunked: same exchange as K sub-block calls.
			e2, pl2, w2, c2 := setup(t, sh.nodes, sh.gpn)
			send2, recv2 := w2.Malloc(k*stride), w2.Malloc(k*stride)
			for _, pe := range allPEs(pl2) {
				fillRank(send2, pe, float32(100*pe))
			}
			e2.Go("chunked", func(p *sim.Proc) {
				for ch := 0; ch < sh.chunks; ch++ {
					lo := ch * stride / sh.chunks
					hi := (ch + 1) * stride / sh.chunks
					c2.AllToAllSub(p, send2, recv2, stride, lo, hi-lo, sh.algo)
				}
			})
			e2.Run()
			for _, pe := range allPEs(pl2) {
				got := recv2.On(pe).Data()
				for i := range want[pe] {
					if got[i] != want[pe][i] {
						t.Fatalf("pe %d elem %d: chunked %g != full %g", pe, i, got[i], want[pe][i])
					}
				}
			}
		})
	}
}

func TestAllToAllSubRejectsBadSubBlock(t *testing.T) {
	e, _, w, c := setup(t, 1, 2)
	send, recv := w.Malloc(2*8), w.Malloc(2*8)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-block sub-range must panic")
		}
	}()
	e.Go("bad", func(p *sim.Proc) { c.AllToAllSub(p, send, recv, 8, 6, 4, Flat) })
	e.Run()
}
