package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
	"weak"
)

// goroutinesBackTo waits until runtime.NumGoroutine is at most base. A
// goroutine that has finished can still be counted for a moment, so it
// polls before it reports a leak.
func goroutinesBackTo(t *testing.T, base int) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for runtime.NumGoroutine() > base {
		select {
		case <-deadline:
			t.Fatalf("%d goroutine(s) leaked", runtime.NumGoroutine()-base)
		case <-time.After(time.Millisecond):
		}
	}
}

// runPanics runs fn and returns what it panicked with, or fails the test
// when it returns normally.
func runPanics(t *testing.T, fn func() Time) (r any) {
	t.Helper()
	defer func() { r = recover() }()
	fn()
	t.Fatal("run returned normally, want a panic")
	return nil
}

// spawnStuck spawns n processes that wait forever; each counts itself
// in unwound when its body unwinds.
func spawnStuck(e *Engine, n int, unwound *int) {
	c := NewCond(e)
	for i := 0; i < n; i++ {
		e.Go(fmt.Sprintf("stuck%d", i), func(p *Proc) {
			defer func() { *unwound++ }()
			c.Wait(p, func() bool { return false })
		})
	}
}

func TestDeadlockStopsParkedProcs(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	unwound := 0
	spawnStuck(e, 10, &unwound)
	r := runPanics(t, e.Run)
	if !strings.Contains(fmt.Sprint(r), "deadlock") {
		t.Fatalf("panic %v, want a deadlock", r)
	}
	if unwound != 10 || len(e.live) != 0 {
		t.Errorf("%d of 10 parked bodies unwound, %d process(es) still live", unwound, len(e.live))
	}
	goroutinesBackTo(t, base)
}

func TestProcPanicStopsParkedProcs(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	unwound := 0
	spawnStuck(e, 10, &unwound)
	// A stopped body that panics while it unwinds must not replace the
	// panic that ended the run.
	e.Go("messy", func(p *Proc) {
		defer panic("cleanup")
		p.Sleep(100)
	})
	e.Go("boom", func(p *Proc) {
		p.Sleep(5)
		panic("boom")
	})
	r := runPanics(t, e.Run)
	if got, want := fmt.Sprint(r), `sim: process "boom" panicked: boom`; got != want {
		t.Fatalf("panic %q, want %q", got, want)
	}
	if unwound != 10 || len(e.live) != 0 {
		t.Errorf("%d of 10 parked bodies unwound, %d process(es) still live", unwound, len(e.live))
	}
	goroutinesBackTo(t, base)
}

// runOnGoroutine runs fn on a fresh goroutine and reports whether fn
// returned normally; it fails the test if fn neither returns nor ends
// its goroutine within a deadline.
//
//detlint:allow rawgo -- host-side harness: a Goexit in fn must end a goroutine other than the test's
func runOnGoroutine(t *testing.T, fn func() Time) (returned bool) {
	t.Helper()
	ended := make(chan bool, 1)
	go func() {
		ok := false
		defer func() { ended <- ok }()
		fn()
		ok = true
	}()
	select {
	case returned = <-ended:
		return returned
	case <-time.After(10 * time.Second):
		t.Fatal("run hung after a process called runtime.Goexit")
		return false
	}
}

// On a bare engine a Goexit in a process ends Run's caller, and the
// processes still parked are stopped.
func TestGoexitEndsRun(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	e.Go("exiter", func(p *Proc) {
		p.Sleep(10)
		runtime.Goexit()
	})
	for i := 0; i < 3; i++ {
		e.Go(fmt.Sprintf("sleeper%d", i), func(p *Proc) { p.Sleep(1000) })
	}
	if runOnGoroutine(t, e.Run) {
		t.Fatal("Run returned normally after a process called runtime.Goexit")
	}
	if len(e.live) != 0 {
		t.Errorf("%d process(es) still live", len(e.live))
	}
	goroutinesBackTo(t, base)
}

type retained struct{ buf [64]byte }

// An exited process must be collectable while the primitives it blocked
// on stay reachable: a completed flow or an admitted semaphore waiter
// left in a backing array would pin it.
func TestExitedProcIsCollectable(t *testing.T) {
	cases := []struct {
		name string
		use  func(e *Engine) (func(*Proc), any)
	}{
		{"resource", func(e *Engine) (func(*Proc), any) {
			r := NewResource(e, "hbm", 1e9, nil)
			return func(p *Proc) { r.Transfer(p, 1000, 0) }, r
		}},
		{"semaphore", func(e *Engine) (func(*Proc), any) {
			s := NewSemaphore(e, 1)
			e.Go("holder", func(p *Proc) {
				s.Acquire(p, 1)
				p.Sleep(10)
				s.Release(1)
			})
			return func(p *Proc) {
				s.Acquire(p, 1)
				s.Release(1)
			}, s
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine()
			body, keep := c.use(e)
			var wp weak.Pointer[Proc]
			e.Go("user", func(p *Proc) {
				wp = weak.Make(p)
				body(p)
			})
			e.Run()
			runtime.GC()
			if wp.Value() != nil {
				t.Fatal("exited process still reachable")
			}
			runtime.KeepAlive(keep)
		})
	}
}

// A *Proc held after its body exits must not keep the body's captures
// alive through its coroutine handles.
func TestHeldProcDropsBody(t *testing.T) {
	held, wc := func() (*Proc, weak.Pointer[retained]) {
		e := NewEngine()
		c := &retained{}
		var held *Proc
		e.Go("p", func(p *Proc) {
			held = p
			p.Sleep(1)
			c.buf[0]++
		})
		e.Run()
		return held, weak.Make(c)
	}()
	runtime.GC()
	if wc.Value() != nil {
		t.Fatal("exited process pins its body's captures")
	}
	runtime.KeepAlive(held)
}
