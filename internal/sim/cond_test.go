package sim

import (
	"fmt"
	"testing"
)

func TestFlagWaitGE(t *testing.T) {
	e := NewEngine()
	f := NewFlag(e)
	var seen Time
	e.Go("waiter", func(p *Proc) {
		f.WaitGE(p, 3)
		seen = p.Now()
	})
	e.Go("setter", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Sleep(100)
			f.Add(1)
		}
	})
	e.Run()
	if seen != 300 {
		t.Errorf("waiter released at %v, want 300", seen)
	}
	if f.Value() != 3 {
		t.Errorf("flag = %d, want 3", f.Value())
	}
}

func TestFlagWaitAlreadySatisfied(t *testing.T) {
	e := NewEngine()
	f := NewFlag(e)
	f.Set(10)
	ran := false
	e.Go("waiter", func(p *Proc) {
		f.WaitGE(p, 5)
		ran = true
		if p.Now() != 0 {
			t.Errorf("satisfied wait should not advance time, at %v", p.Now())
		}
	})
	e.Run()
	if !ran {
		t.Fatal("waiter never ran")
	}
}

func TestFlagMultipleWaiters(t *testing.T) {
	e := NewEngine()
	f := NewFlag(e)
	released := 0
	for i := 0; i < 8; i++ {
		e.Go("w", func(p *Proc) {
			f.WaitEQ(p, 1)
			released++
		})
	}
	e.Go("s", func(p *Proc) {
		p.Sleep(10)
		f.Set(1)
	})
	e.Run()
	if released != 8 {
		t.Errorf("released %d waiters, want 8", released)
	}
}

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	e := NewEngine()
	s := NewSemaphore(e, 2)
	active, peak := 0, 0
	for i := 0; i < 6; i++ {
		e.Go("worker", func(p *Proc) {
			s.Acquire(p, 1)
			active++
			if active > peak {
				peak = active
			}
			p.Sleep(100)
			active--
			s.Release(1)
		})
	}
	end := e.Run()
	if peak != 2 {
		t.Errorf("peak concurrency %d, want 2", peak)
	}
	// 6 workers, 2 at a time, 100ns each => 300ns.
	if end != 300 {
		t.Errorf("finished at %v, want 300", end)
	}
}

func TestSemaphoreFIFOLargeRequestNotStarved(t *testing.T) {
	e := NewEngine()
	s := NewSemaphore(e, 2)
	var order []string
	hold := func(name string, n int, d Duration) {
		e.Go(name, func(p *Proc) {
			s.Acquire(p, n)
			order = append(order, name)
			p.Sleep(d)
			s.Release(n)
		})
	}
	hold("a", 2, 100) // takes both permits
	hold("big", 2, 50)
	hold("small", 1, 50) // arrives after big; must not jump the queue
	e.Run()
	if len(order) != 3 || order[1] != "big" {
		t.Errorf("order = %v, want big admitted before small", order)
	}
}

func TestSemaphoreTryAcquire(t *testing.T) {
	e := NewEngine()
	s := NewSemaphore(e, 1)
	if !s.TryAcquire(1) {
		t.Fatal("TryAcquire on free semaphore failed")
	}
	if s.TryAcquire(1) {
		t.Fatal("TryAcquire on exhausted semaphore succeeded")
	}
	s.Release(1)
	if s.Available() != 1 {
		t.Fatalf("available = %d, want 1", s.Available())
	}
}

func TestWaitGroup(t *testing.T) {
	e := NewEngine()
	wg := NewWaitGroup(e)
	var doneAt Time
	for i := 1; i <= 3; i++ {
		d := Duration(i) * 100
		wg.Add(1)
		e.Go("w", func(p *Proc) {
			p.Sleep(d)
			wg.Done()
		})
	}
	e.Go("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	e.Run()
	if doneAt != 300 {
		t.Errorf("waiter released at %v, want 300 (slowest worker)", doneAt)
	}
}

func TestWaitGroupAlreadyZero(t *testing.T) {
	e := NewEngine()
	wg := NewWaitGroup(e)
	ran := false
	e.Go("w", func(p *Proc) {
		wg.Wait(p)
		ran = true
	})
	e.Run()
	if !ran {
		t.Fatal("wait on zero group must not block")
	}
}

func TestForkJoinStartsInIndexOrder(t *testing.T) {
	e := NewEngine()
	var started []string
	e.Go("host", func(p *Proc) {
		p.ForkJoin(4, "fan", func(rp *Proc, i int) {
			started = append(started, rp.Name())
			rp.Sleep(Duration(4-i) * 10) // later bodies finish first
		})
	})
	e.Run()
	want := []string{"fan/0", "fan/1", "fan/2", "fan/3"}
	if fmt.Sprint(started) != fmt.Sprint(want) {
		t.Errorf("bodies started as %v, want %v", started, want)
	}
}

func TestForkJoinResumesWithSlowestBody(t *testing.T) {
	e := NewEngine()
	var slowestEnd, resumed Time
	e.Go("host", func(p *Proc) {
		p.ForkJoin(3, "fan", func(rp *Proc, i int) {
			rp.Sleep([]Duration{30, 100, 50}[i])
			if rp.Now() > slowestEnd {
				slowestEnd = rp.Now()
			}
		})
		resumed = p.Now()
	})
	e.Go("bystander", func(p *Proc) { p.Sleep(500) })
	e.Run()
	if slowestEnd != 100 || resumed != slowestEnd {
		t.Errorf("caller resumed at %v, slowest body ended at %v, want both 100", resumed, slowestEnd)
	}
}

func TestForkJoinZeroReturnsAtOnce(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Go("host", func(p *Proc) {
		dispatched := e.nDispatched
		p.ForkJoin(0, "fan", func(*Proc, int) { ran = true })
		if e.nDispatched != dispatched || len(e.live) != 1 {
			t.Errorf("ForkJoin(0) parked or spawned: %d events dispatched, %d procs live",
				e.nDispatched-dispatched, len(e.live))
		}
	})
	e.Run()
	if ran {
		t.Error("ForkJoin(0) ran a body")
	}
}

func TestForkJoinBodyPanicNamesProcess(t *testing.T) {
	e := NewEngine()
	e.Go("host", func(p *Proc) {
		p.ForkJoin(3, "fan", func(rp *Proc, i int) {
			if i == 1 {
				panic("boom")
			}
		})
	})
	r := runPanics(t, e.Run)
	if got, want := fmt.Sprint(r), `sim: process "fan/1" panicked: boom`; got != want {
		t.Errorf("panic = %q, want %q", got, want)
	}
}

// semScenario queues four waiters behind a holder of both permits and
// returns the admission log plus the dispatched-event count. With
// callbacks set, waiters b and d use AcquireFunc; otherwise every
// waiter is a process.
func semScenario(callbacks bool) ([]string, uint64) {
	e := NewEngine()
	s := NewSemaphore(e, 2)
	var log []string
	admit := func(name string) { log = append(log, fmt.Sprintf("%d %s", e.Now(), name)) }
	waiter := func(name string, n int, hold Duration, cb bool) {
		if cb {
			e.At(e.Now(), func() {
				release := func() { s.Release(n) }
				run := func() {
					admit(name)
					if e.Delay(hold, release) {
						release()
					}
				}
				if s.AcquireFunc(n, run) {
					run()
				}
			})
			return
		}
		e.Go(name, func(p *Proc) {
			s.Acquire(p, n)
			admit(name)
			p.Sleep(hold)
			s.Release(n)
		})
	}
	waiter("a", 2, 10, false)
	waiter("b", 1, 5, callbacks)
	waiter("c", 2, 5, false)
	waiter("d", 1, 5, callbacks)
	// A same-instant event queued before the admissions' wakes.
	e.At(10, func() { log = append(log, fmt.Sprintf("%d tick", e.Now())) })
	e.Run()
	return log, e.Stats().Dispatched
}

// TestSemaphoreAcquireFuncKeepsFIFO: a callback waiter queues in FIFO
// order among blocked processes and is admitted at the (time, seq) a
// process's wake would take, so the admission log and the event count
// match an all-process run.
func TestSemaphoreAcquireFuncKeepsFIFO(t *testing.T) {
	procs, nProcs := semScenario(false)
	cbs, nCbs := semScenario(true)
	want := []string{"0 a", "10 tick", "10 b", "15 c", "20 d"}
	if fmt.Sprint(procs) != fmt.Sprint(want) {
		t.Fatalf("process waiters admitted %v, want %v", procs, want)
	}
	if fmt.Sprint(cbs) != fmt.Sprint(procs) || nCbs != nProcs {
		t.Errorf("callback waiters: %v (%d events), process waiters: %v (%d events)", cbs, nCbs, procs, nProcs)
	}
	e := NewEngine()
	s := NewSemaphore(e, 0)
	if !s.AcquireFunc(0, nil) {
		t.Error("AcquireFunc of 0 permits must succeed at once")
	}
}

// flagScenario queues five waiters on one flag: GE thresholds that a
// sequence of updates passes one at a time (one update passes none, so
// every waiter wakes, tests and waits again), an EQ waiter, and a waiter
// whose condition holds at once. It returns the wake log plus the
// dispatched-event count. With callbacks set, waiters b, d and e use
// WaitGEFunc/WaitEQFunc; otherwise every waiter is a process.
func flagScenario(callbacks bool) ([]string, uint64) {
	e := NewEngine()
	f := NewFlag(e)
	var log []string
	woke := func(name string) { log = append(log, fmt.Sprintf("%d %s", e.Now(), name)) }
	waiter := func(name string, eq bool, v int64, start Duration, cb bool) {
		if cb {
			e.At(e.Now(), func() {
				var wait func()
				wait = func() {
					if eq && f.WaitEQFunc(v, wait) || !eq && f.WaitGEFunc(v, wait) {
						woke(name)
					}
				}
				if e.Delay(start, wait) {
					wait()
				}
			})
			return
		}
		e.Go(name, func(p *Proc) {
			p.Sleep(start)
			if eq {
				f.WaitEQ(p, v)
			} else {
				f.WaitGE(p, v)
			}
			woke(name)
		})
	}
	waiter("a", false, 2, 0, false)
	waiter("b", false, 1, 0, callbacks)
	waiter("c", false, 3, 0, false)
	waiter("d", true, 2, 0, callbacks)
	waiter("e", false, 1, 25, callbacks)
	e.Go("updates", func(p *Proc) {
		for _, delta := range []int64{0, 1, 1, 1} {
			p.Sleep(10)
			f.Add(delta)
			log = append(log, fmt.Sprintf("%d add %d", e.Now(), delta))
		}
	})
	e.Run()
	return log, e.Stats().Dispatched
}

// TestFlagWaitFuncKeepsFIFO: callback waiters share one FIFO with
// blocked processes, are woken at the (time, seq) a process's wake would
// take, and end their wait at the instant WaitGE or WaitEQ would, so the
// wake log and the event count match an all-process run.
func TestFlagWaitFuncKeepsFIFO(t *testing.T) {
	procs, nProcs := flagScenario(false)
	cbs, nCbs := flagScenario(true)
	want := []string{"10 add 0", "20 add 1", "20 b", "25 e", "30 add 1", "30 a", "30 d", "40 add 1", "40 c"}
	if fmt.Sprint(procs) != fmt.Sprint(want) {
		t.Fatalf("process waiters woke %v, want %v", procs, want)
	}
	if fmt.Sprint(cbs) != fmt.Sprint(procs) || nCbs != nProcs {
		t.Errorf("callback waiters: %v (%d events), process waiters: %v (%d events)", cbs, nCbs, procs, nProcs)
	}
}
