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

// TestScheduleIntoPendingInstantAllocatesNothing: once an instant is
// pending and the event pool is warm, scheduling into it is an append,
// whether the instant is the one last scheduled into or found by its
// time, and whether the seq is fresh or reserved earlier (as a
// Resource timer's is) and sorts in ahead of queued events.
func TestScheduleIntoPendingInstantAllocatesNothing(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 512; i++ {
		e.At(100, fn)
		e.At(150, fn)
	}
	// Fill the event pool and leave two spare instants.
	e.Run()
	// One reserved seq per round, below every queued event's.
	reserved := e.seq
	e.seq += 101
	e.At(200, fn)
	e.At(300, fn)
	per := testing.AllocsPerRun(100, func() {
		e.At(200, fn) // through the map
		e.At(200, fn) // the cached instant
		e.At(300, fn)
		e.enqueueSeq(200, reserved, fn)
		reserved++
	})
	if per != 0 {
		t.Errorf("scheduling into a pending instant allocates %v objects per round, want 0", per)
	}
	if want := 2 + 4*101; e.pending != want || len(e.queue) != 2 {
		t.Fatalf("%d events in %d instants, want %d in 2", e.pending, len(e.queue), want)
	}
	checkQueue(t, e)
}
