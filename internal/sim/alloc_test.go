package sim

import "testing"

// allocsPerCall reports the heap allocations one call adds to a run:
// run(n) makes n calls, and the runs of 16 and of 1040 calls differ
// only in the 1024 calls between them.
func allocsPerCall(run func(n int)) float64 {
	few := testing.AllocsPerRun(5, func() { run(16) })
	many := testing.AllocsPerRun(5, func() { run(1040) })
	return (many - few) / 1024
}

func TestTransferAllocatesNothingPerCall(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "hbm", 1e12, nil)
	per := allocsPerCall(func(n int) {
		e.Go("xfer", func(p *Proc) {
			for i := 0; i < n; i++ {
				r.Transfer(p, 4096, 0)
			}
		})
		e.Run()
	})
	if per != 0 {
		t.Errorf("blocking Transfer allocates %v objects per call, want 0", per)
	}
}

func TestTransferAsyncAllocatesNothingPerCall(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "hbm", 1e12, nil)
	per := allocsPerCall(func(n int) {
		left := n
		var next func()
		next = func() {
			if left--; left >= 0 {
				r.TransferAsync(4096, 0, next)
			}
		}
		e.At(e.Now(), next)
		e.Run()
	})
	if per != 0 {
		t.Errorf("TransferAsync allocates %v objects per call, want 0", per)
	}
}

func TestTransferAsyncNAllocatesNothingPerCall(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "link", 1e12, nil)
	per := allocsPerCall(func(n int) {
		left := n
		var next func()
		next = func() {
			if left--; left >= 0 {
				r.TransferAsyncN(4096, 8, next)
			}
		}
		e.At(e.Now(), next)
		e.Run()
	})
	if per != 0 {
		t.Errorf("TransferAsyncN allocates %v objects per call, want 0", per)
	}
}

func TestFlagRoundTripAllocatesNothingPerCall(t *testing.T) {
	e := NewEngine()
	f := NewFlag(e)
	per := allocsPerCall(func(n int) {
		f.Set(0)
		e.Go("ping", func(p *Proc) {
			for i := 0; i < n; i++ {
				f.WaitGE(p, int64(2*i))
				f.Add(1)
			}
		})
		e.Go("pong", func(p *Proc) {
			for i := 0; i < n; i++ {
				f.WaitGE(p, int64(2*i+1))
				f.Add(1)
			}
		})
		e.Run()
	})
	if per != 0 {
		t.Errorf("Flag Add/WaitGE round trip allocates %v objects per call, want 0", per)
	}
}
