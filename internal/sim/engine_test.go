package sim

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
)

func TestClockStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("new engine clock = %v, want 0", e.Now())
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	e := NewEngine()
	var woke Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(42 * Microsecond)
		woke = p.Now()
	})
	end := e.Run()
	if woke != Time(42*Microsecond) {
		t.Errorf("woke at %v, want 42us", woke)
	}
	if end != woke {
		t.Errorf("Run returned %v, want %v", end, woke)
	}
}

func TestSleepZeroAndNegative(t *testing.T) {
	e := NewEngine()
	order := []string{}
	e.Go("a", func(p *Proc) {
		p.Sleep(0)
		order = append(order, "a")
	})
	e.Go("b", func(p *Proc) {
		p.Sleep(-5)
		order = append(order, "b")
	})
	e.Run()
	if len(order) != 2 {
		t.Fatalf("got %d wakeups, want 2", len(order))
	}
}

func TestEventOrderingFIFOAtSameTime(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO tie-break violated)", i, v, i)
		}
	}
}

func TestEventOrderingByTime(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(300, func() { order = append(order, 3) })
	e.At(100, func() { order = append(order, 1) })
	e.At(200, func() { order = append(order, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestProcessesInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var log []string
		for i := 0; i < 4; i++ {
			name := fmt.Sprintf("p%d", i)
			d := Duration(i+1) * 10
			e.Go(name, func(p *Proc) {
				for k := 0; k < 3; k++ {
					p.Sleep(d)
					log = append(log, fmt.Sprintf("%s@%d", name, p.Now()))
				}
			})
		}
		e.Run()
		return log
	}
	a, b := run(), run()
	if len(a) != 12 {
		t.Fatalf("got %d log entries, want 12", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestRunUntilHorizon(t *testing.T) {
	e := NewEngine()
	var hits []Time
	e.Go("p", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(100)
			hits = append(hits, p.Now())
		}
	})
	e.RunUntil(250)
	if len(hits) != 2 {
		t.Fatalf("got %d hits before horizon, want 2 (hits=%v)", len(hits), hits)
	}
	e.Run()
	if len(hits) != 5 {
		t.Fatalf("got %d total hits, want 5", len(hits))
	}
}

func TestRunUntilPreservesSeqAcrossHorizon(t *testing.T) {
	// Two equal-time events scheduled A-then-B beyond the horizon must
	// still run A-then-B after RunUntil returns. The old implementation
	// popped the over-horizon event and re-scheduled it with a fresh
	// sequence number, silently reordering it behind its peers.
	e := NewEngine()
	var order []string
	e.At(100, func() { order = append(order, "A") })
	e.At(100, func() { order = append(order, "B") })
	if got := e.RunUntil(50); got != 0 {
		t.Fatalf("RunUntil(50) = %v, want 0", got)
	}
	if len(order) != 0 {
		t.Fatalf("events ran before horizon: %v", order)
	}
	e.Run()
	if len(order) != 2 || order[0] != "A" || order[1] != "B" {
		t.Fatalf("order = %v, want [A B] (seq lost across RunUntil boundary)", order)
	}
}

func TestRunUntilBeforeNow(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {})
	e.Run()
	if got := e.RunUntil(50); got != 100 {
		t.Fatalf("RunUntil(past) = %v, want clock unchanged at 100", got)
	}
}

func TestRunUntilHorizonWithProcSleeps(t *testing.T) {
	// The Sleep direct-handoff fast path must not advance the clock past
	// an active RunUntil horizon even when the heap is empty.
	e := NewEngine()
	var hits []Time
	e.Go("p", func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Sleep(100)
			hits = append(hits, p.Now())
		}
	})
	at := e.RunUntil(250)
	if at > 250 {
		t.Fatalf("RunUntil(250) returned %v, clock overran horizon", at)
	}
	if len(hits) != 2 {
		t.Fatalf("got %d hits before horizon, want 2 (hits=%v)", len(hits), hits)
	}
	end := e.Run()
	if len(hits) != 4 || end != 400 {
		t.Fatalf("after Run: hits=%v end=%v, want 4 hits ending at 400", hits, end)
	}
}

func TestCancelledHeapCompaction(t *testing.T) {
	e := NewEngine()
	var evs []*event
	for i := 0; i < 200; i++ {
		evs = append(evs, e.enqueue(Time(1000+i), nil, func() {}))
	}
	// Cancel from the back so the heap head stays live and lazy purging
	// never kicks in; only the threshold compaction can shrink the heap.
	for i := 199; i >= 60; i-- {
		e.cancel(evs[i])
	}
	// Compaction keeps the cancelled fraction bounded: at no point may
	// more than half the heap be dead, so 140 cancellations against 60
	// survivors must have shrunk the heap at least once.
	if len(e.queue) >= 200 {
		t.Fatalf("heap len = %d after cancelling 140/200, compaction never fired", len(e.queue))
	}
	if e.ncancelled*2 > len(e.queue) {
		t.Fatalf("heap %d events with %d cancelled: >50%% dead despite threshold", len(e.queue), e.ncancelled)
	}
	// The survivors must still run, in order.
	var got int
	e.queue = e.queue[:0]
	e = NewEngine()
	evs = evs[:0]
	for i := 0; i < 100; i++ {
		i := i
		evs = append(evs, e.enqueue(Time(10+i), nil, func() { got++; _ = i }))
	}
	for i := 99; i >= 40; i-- {
		e.cancel(evs[i])
	}
	e.Run()
	if got != 40 {
		t.Fatalf("ran %d events after cancellation, want 40", got)
	}
}

// TestEventHeapDispatchOrder: thousands of callbacks at seeded random
// times, some scheduling more, with enough of them cancelled to force
// compaction before the run and more cancelled during it. Whatever
// arrangement the heap takes, every event not cancelled must be
// dispatched, in sorted (time, seq) order.
func TestEventHeapDispatchOrder(t *testing.T) {
	type key struct {
		at  Time
		seq uint64
	}
	e := NewEngine()
	rng := xorshift(0x2545f4914f6cdd1d)
	var (
		evs       []*event // by schedule index
		keys      []key
		pending   []bool // neither dispatched nor cancelled
		cancelled []bool
		got       []key
	)
	cancel := func(i int) {
		pending[i], cancelled[i] = false, true
		e.cancel(evs[i])
	}
	var schedule func(at Time)
	schedule = func(at Time) {
		i := len(evs)
		keys = append(keys, key{at, e.seq})
		pending = append(pending, true)
		cancelled = append(cancelled, false)
		evs = append(evs, e.enqueue(at, nil, func() {
			pending[i] = false
			got = append(got, keys[i])
			if len(evs) < 6000 && rng.intn(4) == 0 {
				schedule(e.Now().Add(Duration(rng.intn(300))))
			}
			if j := rng.intn(len(evs)); pending[j] && rng.intn(3) == 0 {
				cancel(j)
			}
		}))
	}
	const initial = 4000
	for i := 0; i < initial; i++ {
		schedule(Time(rng.intn(2000)))
	}
	for i := range evs {
		if rng.intn(10) < 6 {
			cancel(i)
		}
	}
	// Nothing is purged before Run, so a shorter heap means compaction ran.
	if len(e.queue) >= initial {
		t.Fatalf("heap holds all %d events after cancelling most: compaction never ran", initial)
	}
	e.Run()

	var want []key
	for i, k := range keys {
		if !cancelled[i] {
			want = append(want, k)
		}
	}
	slices.SortFunc(want, func(a, b key) int {
		if a.at != b.at {
			return cmp.Compare(a.at, b.at)
		}
		return cmp.Compare(a.seq, b.seq)
	})
	if len(got) != len(want) {
		t.Fatalf("dispatched %d events, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("dispatch %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestCompactionBelowMinIsLazy(t *testing.T) {
	e := NewEngine()
	var evs []*event
	for i := 0; i < compactMin; i++ {
		evs = append(evs, e.enqueue(Time(1000+i), nil, func() {}))
	}
	for _, ev := range evs {
		e.cancel(ev)
	}
	if len(e.queue) != compactMin {
		t.Fatalf("small heap compacted eagerly: len = %d, want %d", len(e.queue), compactMin)
	}
	e.Run() // purges lazily, must not run anything
}

func TestEventPoolRecycles(t *testing.T) {
	e := NewEngine()
	for round := 0; round < 3; round++ {
		for i := 0; i < 10; i++ {
			e.At(e.Now().Add(Duration(i+1)), func() {})
		}
		e.Run()
	}
	if len(e.pool) == 0 {
		t.Fatal("event pool empty after dispatch; events are not being recycled")
	}
}

func TestSameInstantChainLongCascade(t *testing.T) {
	// A callback chain at one instant must terminate with the queue
	// compacted, and interleave correctly with process wakeups.
	e := NewEngine()
	n := 0
	var chain func()
	chain = func() {
		if n++; n < 10000 {
			e.At(e.Now(), chain)
		}
	}
	e.At(5, chain)
	e.Go("obs", func(p *Proc) { p.Sleep(5) })
	e.Run()
	if n != 10000 {
		t.Fatalf("chain ran %d times, want 10000", n)
	}
	if len(e.nowq) != 0 || e.nowqHead != 0 {
		t.Fatalf("nowq not reset after run: len=%d head=%d", len(e.nowq), e.nowqHead)
	}
}

func TestSpawnFromProcess(t *testing.T) {
	e := NewEngine()
	var childTime Time
	e.Go("parent", func(p *Proc) {
		p.Sleep(50)
		e.Go("child", func(c *Proc) {
			c.Sleep(25)
			childTime = c.Now()
		})
		p.Sleep(100)
	})
	e.Run()
	if childTime != 75 {
		t.Errorf("child finished at %v, want 75", childTime)
	}
}

func TestDeadlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	e := NewEngine()
	c := NewCond(e)
	e.Go("stuck", func(p *Proc) {
		c.Wait(p, func() bool { return false })
	})
	e.Run()
}

func TestProcessPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected process panic to propagate")
		}
		if got, want := fmt.Sprint(r), `sim: process "boom" panicked: boom`; got != want {
			t.Fatalf("panic %q, want %q", got, want)
		}
	}()
	e := NewEngine()
	e.Go("boom", func(p *Proc) {
		p.Sleep(10)
		panic("boom")
	})
	e.Run()
}

func TestYieldRunsQueuedEventsFirst(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Go("a", func(p *Proc) {
		order = append(order, "a1")
		p.Yield()
		order = append(order, "a2")
	})
	e.Go("b", func(p *Proc) {
		order = append(order, "b1")
	})
	e.Run()
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	if Time(5).Add(3) != 8 {
		t.Error("Add broken")
	}
	if Forever.Add(100) != Forever {
		t.Error("Forever must saturate")
	}
	if Time(100).Sub(40) != 60 {
		t.Error("Sub broken")
	}
	if DurationOf(1e-9) != 1 {
		t.Error("DurationOf(1ns) != 1")
	}
	if DurationOf(-1) != 0 {
		t.Error("negative seconds must clamp to 0")
	}
	if TransferTime(0, 100) != 0 {
		t.Error("zero bytes must take zero time")
	}
	if got := TransferTime(1e9, 1e9); got != Second {
		t.Errorf("1GB at 1GB/s = %v, want 1s", got)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500ns"},
		{42 * Microsecond, "42.00us"},
		{15 * Millisecond, "15.000ms"},
		{12 * Second, "12.000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

// delayScenario runs a chain of sleeps, as a process (Sleep) or as an
// engine-callback chain (Delay), among other events, and returns the log
// and the dispatched and direct-handoff counts.
func delayScenario(callbacks bool) ([]string, Stats) {
	e := NewEngine()
	var log []string
	logf := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%d ", e.Now())+fmt.Sprintf(format, args...))
	}
	ds := []Duration{0, 5, 0, 3, 10, 0, 7, 2}
	if callbacks {
		i := 0
		var step func()
		step = func() {
			for i < len(ds) {
				logf("step %d", i)
				i++
				if !e.Delay(ds[i-1], step) {
					return
				}
			}
			logf("chain done")
		}
		e.At(0, step)
	} else {
		e.Go("chain", func(p *Proc) {
			for i, d := range ds {
				logf("step %d", i)
				p.Sleep(d)
			}
			logf("chain done")
		})
	}
	e.Go("other", func(p *Proc) {
		p.Sleep(5)
		logf("other woke")
		p.Sleep(20)
		logf("other done")
	})
	e.At(8, func() { logf("tick") })
	e.At(18, func() { logf("tick") })
	e.Run()
	return log, e.Stats()
}

// TestDelayMatchesSleep: an engine-callback chain of Delays logs the
// same sequence as a process's Sleeps, with the same dispatched-event
// and direct-handoff counts: Delay hands off exactly when Sleep would.
func TestDelayMatchesSleep(t *testing.T) {
	procLog, ps := delayScenario(false)
	cbLog, cs := delayScenario(true)
	if fmt.Sprint(cbLog) != fmt.Sprint(procLog) {
		t.Fatalf("Delay chain logged\n%v\nSleep chain logged\n%v", cbLog, procLog)
	}
	if ps.DirectHandoffs == 0 || ps.DirectHandoffs == uint64(len(procLog)) {
		t.Fatalf("scenario needs both handoffs and parks, got %d handoffs", ps.DirectHandoffs)
	}
	if cs.Dispatched != ps.Dispatched || cs.DirectHandoffs != ps.DirectHandoffs {
		t.Errorf("Delay chain: %d events, %d handoffs; Sleep chain: %d events, %d handoffs",
			cs.Dispatched, cs.DirectHandoffs, ps.Dispatched, ps.DirectHandoffs)
	}
}

func TestSpawnedCountsProcesses(t *testing.T) {
	e := NewEngine()
	e.Go("a", func(p *Proc) {
		p.ForkJoin(3, "kids", func(*Proc, int) {})
	})
	e.At(1, func() { e.Go("b", func(*Proc) {}) })
	before := GlobalStats().Spawned
	e.Run()
	if got := e.Stats().Spawned; got != 5 {
		t.Errorf("spawned %d, want 5", got)
	}
	if got := GlobalStats().Spawned - before; got < 5 {
		t.Errorf("global spawn count grew by %d, want at least 5", got)
	}
}
