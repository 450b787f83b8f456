package triton

import (
	"testing"

	"fusedcc/internal/gpu"
	"fusedcc/internal/platform"
	"fusedcc/internal/shmem"
	"fusedcc/internal/sim"
)

func testWorld(e *sim.Engine) (*platform.Platform, *shmem.World) {
	cfg := platform.Config{
		Nodes:       1,
		GPUsPerNode: 2,
		GPU: gpu.Config{
			Name: "t", CUs: 4, MaxWGSlotsPerCU: 2,
			HBMBandwidth: 8e9, PerWGStreamBandwidth: 2e9,
			GatherEfficiency: 0.5, FlopsPerCU: 1e9,
			KernelLaunchOverhead: 10 * sim.Microsecond, Functional: true,
		},
	}
	cfg.Fabric.LinkBandwidth = 2e9
	cfg.Fabric.StoreLatency = 100
	cfg.Fabric.PerWGStoreBandwidth = 1e9
	pl, err := platform.New(e, cfg)
	if err != nil {
		panic(err)
	}
	return pl, shmem.NewWorld(pl, shmem.DefaultConfig())
}

func TestProgramsCoverGrid(t *testing.T) {
	e := sim.NewEngine()
	pl, _ := testWorld(e)
	seen := map[int]int{}
	e.Go("host", func(p *sim.Proc) {
		NewBuilder("k", pl.Device(0), nil).
			Grid(20).
			Body(func(tc *TileCtx) { seen[tc.PID]++ }).
			Launch(p)
	})
	e.Run()
	if len(seen) != 20 {
		t.Fatalf("covered %d programs, want 20", len(seen))
	}
	for pid := 0; pid < 20; pid++ {
		if seen[pid] != 1 {
			t.Fatalf("program %d ran %d times", pid, seen[pid])
		}
	}
}

func TestOrderControlsExecution(t *testing.T) {
	e := sim.NewEngine()
	pl, _ := testWorld(e)
	var got []int
	order := []int{3, 1, 2, 0}
	e.Go("host", func(p *sim.Proc) {
		NewBuilder("k", pl.Device(0), nil).
			Grid(4).
			Occupancy(1). // phys 4, but single WG via grid < phys? force serial:
			Body(func(tc *TileCtx) { got = append(got, tc.PID) }).
			Order(order).
			Launch(p)
	})
	e.Run()
	if len(got) != 4 {
		t.Fatalf("ran %d programs", len(got))
	}
	// With 4 physical WGs each takes one program; issue order follows the
	// permutation (strided assignment i -> order[i]).
	for i, pid := range got {
		if pid != order[i] {
			t.Fatalf("got order %v, want %v", got, order)
		}
	}
}

func TestLoadDotStoreChargeTime(t *testing.T) {
	e := sim.NewEngine()
	pl, _ := testWorld(e)
	buf := pl.Device(0).Alloc(64)
	vals := make([]float32, 64)
	for i := range vals {
		vals[i] = float32(i)
	}
	var end sim.Time
	e.Go("host", func(p *sim.Proc) {
		NewBuilder("k", pl.Device(0), nil).
			Grid(1).
			Body(func(tc *TileCtx) {
				tc.Load(2e6)
				tc.Dot(1e6)
				tc.Store(buf, 0, 8, vals, 8, 8)
			}).
			Launch(p)
		end = p.Now()
	})
	e.Run()
	// load 2MB at 2GB/s = 1ms, dot 1e6 at 1e9 = 1ms, store 256B trivial,
	// plus 10us launch.
	want := sim.Time(2*sim.Millisecond + 10*sim.Microsecond)
	if d := end - want; d < -sim.Time(5*sim.Microsecond) || d > sim.Time(5*sim.Microsecond) {
		t.Errorf("end = %v, want ~%v", end, want)
	}
	if buf.Data()[63] != 63 {
		t.Error("store values not applied")
	}
}

func TestCommPrimitivesMoveDataAcrossGPUs(t *testing.T) {
	e := sim.NewEngine()
	pl, w := testWorld(e)
	recv := w.Malloc(16)
	fl := w.MallocFlags(1)
	vals := []float32{1, 2, 3, 4}
	e.Go("gpu0", func(p *sim.Proc) {
		NewBuilder("send", pl.Device(0), w).
			Grid(1).
			Body(func(tc *TileCtx) {
				tc.CommPutRows(1, recv, 4, 4, vals, 1, 4)
				tc.CommFlag(1, fl, 0, 1)
			}).
			Launch(p)
	})
	e.Go("gpu1", func(p *sim.Proc) {
		NewBuilder("recv", pl.Device(1), w).
			Grid(1).
			Body(func(tc *TileCtx) {
				tc.CommWait(fl, 0, 1)
				tc.WG().Then(func() {
					d := recv.On(1).Data()
					if d[4] != 1 || d[7] != 4 {
						t.Errorf("tile not delivered: %v", d[4:8])
					}
				})
			}).
			Launch(p)
	})
	e.Run()
}

func TestCommWithoutWorldPanics(t *testing.T) {
	e := sim.NewEngine()
	pl, w := testWorld(e)
	recv := w.Malloc(4)
	e.Go("host", func(p *sim.Proc) {
		NewBuilder("k", pl.Device(0), nil).
			Grid(1).
			Body(func(tc *TileCtx) {
				tc.CommPutRows(1, recv, 0, 4, nil, 1, 4)
			}).
			Launch(p)
	})
	defer func() {
		if recover() == nil {
			t.Fatal("want panic when comm extension not linked")
		}
	}()
	e.Run()
}

func TestOnRetireRunsPerWG(t *testing.T) {
	e := sim.NewEngine()
	pl, _ := testWorld(e)
	retired := map[int]bool{}
	e.Go("host", func(p *sim.Proc) {
		NewBuilder("k", pl.Device(0), nil).
			Grid(8).
			Occupancy(1). // 4 physical WGs
			Body(func(tc *TileCtx) {}).
			OnRetire(func(tc *TileCtx) { retired[tc.Phys] = true }).
			Launch(p)
	})
	e.Run()
	if len(retired) != 4 {
		t.Fatalf("retire hook ran on %d WGs, want 4", len(retired))
	}
}

func TestBuilderValidation(t *testing.T) {
	e := sim.NewEngine()
	pl, _ := testWorld(e)
	cases := []func(p *sim.Proc){
		func(p *sim.Proc) { NewBuilder("k", pl.Device(0), nil).Body(func(*TileCtx) {}).Launch(p) }, // no grid
		func(p *sim.Proc) { NewBuilder("k", pl.Device(0), nil).Grid(4).Launch(p) },                 // no body
		func(p *sim.Proc) { // bad order length
			NewBuilder("k", pl.Device(0), nil).Grid(4).Order([]int{0}).Body(func(*TileCtx) {}).Launch(p)
		},
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: want panic", i)
				}
			}()
			e2 := sim.NewEngine()
			pl2, _ := testWorld(e2)
			_ = pl2
			e2.Go("host", fn)
			e2.Run()
		}()
	}
}

func TestBestTilingFillsDevice(t *testing.T) {
	e := sim.NewEngine()
	pl, _ := testWorld(e) // 4 CUs x 2 slots = 8 slots
	dev := pl.Device(0)
	// Large matrix: prefers big tiles while grid >= slots.
	big := BestTiling(dev, 4096, 4096, 0)
	if big.TileM < 64 || big.TileN < 64 {
		t.Errorf("large GEMM picked tiny tiles %+v", big)
	}
	tiles := (4096 / big.TileM) * (4096 / big.TileN)
	if tiles < 8 {
		t.Errorf("grid %d does not fill %d slots", tiles, 8)
	}
	// Tiny matrix: must not exceed the shape.
	small := BestTiling(dev, 16, 16, 0)
	if small.TileM > 16 || small.TileN > 16 {
		t.Errorf("tiling %+v exceeds matrix", small)
	}
}

func TestBestTilingOccupancyAware(t *testing.T) {
	e := sim.NewEngine()
	pl, _ := testWorld(e)
	dev := pl.Device(0)
	// Lower occupancy needs fewer tiles to fill the device, so equal or
	// larger tiles are acceptable.
	full := BestTiling(dev, 1024, 1024, 2)
	half := BestTiling(dev, 1024, 1024, 1)
	if half.TileM*half.TileN < full.TileM*full.TileN {
		t.Errorf("lower occupancy picked smaller tiles: %+v vs %+v", half, full)
	}
}
