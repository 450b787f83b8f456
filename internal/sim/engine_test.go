package sim

import (
	"cmp"
	"fmt"
	"math"
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
	// A sleeping process must not advance the clock past an active
	// RunUntil horizon, even when its wake is the only pending event.
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

// checkQueue verifies the instant heap's invariants: the heap orders
// the instants by time, the map holds exactly the heap's instants, each
// instant keeps its events in seq order, every instant but the earliest
// holds one, and pending and ncancelled count the queued events.
func checkQueue(tb testing.TB, e *Engine) {
	tb.Helper()
	if len(e.instants) != len(e.queue) {
		tb.Fatalf("map holds %d instants, heap %d", len(e.instants), len(e.queue))
	}
	pending, cancelled := 0, 0
	for i, in := range e.queue {
		if i > 0 && in.at < e.queue[(i-1)/2].at {
			tb.Fatalf("heap slot %d at %v precedes its parent at %v", i, in.at, e.queue[(i-1)/2].at)
		}
		if e.instants[in.at] != in {
			tb.Fatalf("map does not hold the instant at %v", in.at)
		}
		if i > 0 && in.head == len(in.evs) {
			tb.Fatalf("empty instant at %v left in heap slot %d", in.at, i)
		}
		for j, ev := range in.evs[in.head:] {
			if !ev.heaped {
				tb.Fatalf("instant at %v holds an event not marked heaped", in.at)
			}
			if j > 0 && in.evs[in.head+j-1].seq >= ev.seq {
				tb.Fatalf("instant at %v out of seq order at %d", in.at, j)
			}
			if ev.cancelled {
				cancelled++
			}
		}
		pending += len(in.evs) - in.head
	}
	if pending != e.pending || cancelled != e.ncancelled {
		tb.Fatalf("instants hold %d events (%d cancelled), engine counts %d (%d)",
			pending, cancelled, e.pending, e.ncancelled)
	}
}

// queuedEvents lists the events queued in the instants, heap order.
func queuedEvents(e *Engine) []*event {
	var evs []*event
	for _, in := range e.queue {
		evs = append(evs, in.evs[in.head:]...)
	}
	return evs
}

func TestCancelledHeapCompaction(t *testing.T) {
	// Four events per instant, so compaction both thins instants and
	// drops the ones it empties.
	e := NewEngine()
	var evs []*event
	for i := 0; i < 200; i++ {
		evs = append(evs, e.enqueue(Time(1000+i/4), func() {}))
	}
	// Cancel from the back so the earliest instant stays live and lazy
	// purging never kicks in; only the threshold compaction can shrink
	// the queue. At no point may more than half of it be dead.
	for i := 199; i >= 60; i-- {
		e.cancel(evs[i])
		if e.pending > compactMin && e.ncancelled*2 > e.pending {
			t.Fatalf("%d queued events with %d cancelled: >50%% dead despite threshold", e.pending, e.ncancelled)
		}
	}
	// 140 cancellations against 60 survivors must have compacted.
	if e.pending >= 200 {
		t.Fatalf("%d events queued after cancelling 140/200, compaction never fired", e.pending)
	}
	checkQueue(t, e)
	// The survivors must still run, in order.
	var got []int
	e = NewEngine()
	evs = evs[:0]
	for i := 0; i < 100; i++ {
		evs = append(evs, e.enqueue(Time(10+i/4), func() { got = append(got, i) }))
	}
	for i := 99; i >= 40; i-- {
		e.cancel(evs[i])
	}
	e.Run()
	if len(got) != 40 {
		t.Fatalf("ran %d events after cancellation, want 40", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("dispatch %d ran event %d", i, v)
		}
	}
	checkQueue(t, e)
}

// eventOrderScenario: thousands of callbacks at seeded random times
// drawn from the given number of distinct times, some scheduling more,
// some of them (as Resource.settle does) under a seq reserved earlier
// and into a future instant already holding higher seqs, with enough of
// them cancelled to force compaction before the run and more cancelled
// during it, including events still queued in the instant being run.
// Whatever arrangement the queue takes, every event not cancelled must
// be dispatched, in sorted (time, seq) order.
func eventOrderScenario(tb testing.TB, seed uint64, times int) {
	type key struct {
		at  Time
		seq uint64
	}
	const (
		initial = 4000
		span    = 2000 // initial times fall in [0, span)
	)
	stride := max(span/times, 1)
	e := NewEngine()
	rng := xorshift(seed | 1)
	var (
		evs       []*event // by schedule index
		keys      []key
		pending   []bool // neither dispatched nor cancelled
		cancelled []bool
		byTime    = map[Time][]int{} // schedule indices
		reserved  []uint64           // seqs reserved and not yet used
		got       []key
	)
	cancel := func(i int) {
		pending[i], cancelled[i] = false, true
		e.cancel(evs[i])
	}
	// later draws a time on the stride grid up to 300 ns ahead.
	later := func(min int) Time {
		return e.Now().Add(Duration((min + rng.intn(300/stride+1)) * stride))
	}
	var schedule func(at Time, seq uint64)
	schedule = func(at Time, seq uint64) {
		i := len(evs)
		keys = append(keys, key{at, seq})
		pending = append(pending, true)
		cancelled = append(cancelled, false)
		byTime[at] = append(byTime[at], i)
		evs = append(evs, e.enqueueSeq(at, seq, func() {
			pending[i] = false
			got = append(got, keys[i])
			if len(got)%257 == 0 {
				checkQueue(tb, e)
			}
			if len(evs) < 6000 {
				switch rng.intn(8) {
				case 0, 1:
					// Fresh seq; 0 delay goes to the same-instant queue.
					schedule(later(0), e.takeSeq())
				case 2:
					// Reserve a seq now, schedule under it later.
					reserved = append(reserved, e.takeSeq())
				case 3:
					if n := len(reserved); n > 0 {
						// A future instant that already holds a
						// seq above the reserved one.
						at := later(1)
						schedule(at, e.takeSeq())
						schedule(at, reserved[n-1])
						reserved = reserved[:n-1]
					}
				}
			}
			if j := rng.intn(len(evs)); pending[j] && rng.intn(3) == 0 {
				cancel(j)
			}
			// An event still queued in this instant.
			if now := byTime[e.Now()]; rng.intn(4) == 0 {
				if j := now[rng.intn(len(now))]; pending[j] {
					cancel(j)
				}
			}
		}))
	}
	for i := 0; i < initial; i++ {
		schedule(Time(rng.intn(span/stride)*stride), e.takeSeq())
	}
	for i := range evs {
		if rng.intn(10) < 6 {
			cancel(i)
		}
	}
	// Nothing is purged before Run, so fewer queued events means
	// compaction ran.
	if e.pending >= initial {
		tb.Fatalf("all %d events queued after cancelling most: compaction never ran", initial)
	}
	checkQueue(tb, e)
	e.Run()
	checkQueue(tb, e)
	if len(e.queue) != 0 || e.pending != 0 {
		tb.Fatalf("after Run: %d instants, %d events queued", len(e.queue), e.pending)
	}

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
		tb.Fatalf("dispatched %d events, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			tb.Fatalf("dispatch %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// takeSeq reserves the engine's next seq, as Resource.reallocate does.
func (e *Engine) takeSeq() uint64 {
	s := e.seq
	e.seq++
	return s
}

// TestEventHeapDispatchOrder runs the scenario spread thin (about two
// events per instant) and in lockstep (a few dozen instants of 100 or
// more events each, as fused kernels' workgroups schedule).
func TestEventHeapDispatchOrder(t *testing.T) {
	for _, c := range []struct {
		seed  uint64
		times int
	}{
		{0x2545f4914f6cdd1d, 2000},
		{0x2545f4914f6cdd1d, 32},
		{0x9e3779b97f4a7c15, 24},
	} {
		t.Run(fmt.Sprintf("times=%d/seed=%x", c.times, c.seed), func(t *testing.T) {
			eventOrderScenario(t, c.seed, c.times)
		})
	}
}

// FuzzEventOrder runs the dispatch-order scenario at any seed and any
// number of distinct initial times.
func FuzzEventOrder(f *testing.F) {
	f.Add(uint64(0x2545f4914f6cdd1d), uint16(2000))
	f.Add(uint64(0x2545f4914f6cdd1d), uint16(32))
	f.Add(uint64(1), uint16(1))
	f.Fuzz(func(t *testing.T, seed uint64, times uint16) {
		eventOrderScenario(t, seed, max(int(times)%2001, 1))
	})
}

func TestCompactionBelowMinIsLazy(t *testing.T) {
	e := NewEngine()
	var evs []*event
	for i := 0; i < compactMin; i++ {
		evs = append(evs, e.enqueue(Time(1000+i/4), func() {}))
	}
	for _, ev := range evs {
		e.cancel(ev)
	}
	if e.pending != compactMin || len(e.queue) != compactMin/4 {
		t.Fatalf("small queue compacted eagerly: %d events in %d instants, want %d in %d",
			e.pending, len(e.queue), compactMin, compactMin/4)
	}
	e.Run() // purges lazily, must not run anything
	checkQueue(t, e)
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
	if DurationOf(math.NaN()) != 0 {
		t.Error("NaN seconds must clamp to 0")
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

// afterChainScenario runs a chain of sleeps, as a process (Sleep) or as
// an engine-callback chain (After), among other events, and returns the
// log and the engine's counters.
func afterChainScenario(callbacks bool) ([]string, Stats) {
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
			if i < len(ds) {
				logf("step %d", i)
				i++
				e.After(ds[i-1], step)
				return
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

// TestAfterChainMatchesSleep: an engine-callback chain of Afters logs
// the same sequence as a process's Sleeps, with the same dispatched-event
// count: a process's wake is an After callback.
func TestAfterChainMatchesSleep(t *testing.T) {
	procLog, ps := afterChainScenario(false)
	cbLog, cs := afterChainScenario(true)
	if fmt.Sprint(cbLog) != fmt.Sprint(procLog) {
		t.Fatalf("After chain logged\n%v\nSleep chain logged\n%v", cbLog, procLog)
	}
	if cs.Dispatched != ps.Dispatched {
		t.Errorf("After chain: %d events; Sleep chain: %d events", cs.Dispatched, ps.Dispatched)
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

func TestEngineStatsPoolAndHandoff(t *testing.T) {
	e := NewEngine()
	// Timer chain: every link is an event through the heap, so dispatch
	// counts grow and freed events come back from the pool.
	var tick func(k int)
	tick = func(k int) {
		if k < 100 {
			e.After(10, func() { tick(k + 1) })
		}
	}
	// The chain starts after the sleeper is done.
	e.After(2000, func() { tick(0) })
	e.Go("p", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(10)
		}
	})
	e.Run()
	s := e.Stats()
	if s.Dispatched < 100 {
		t.Errorf("dispatched %d, want >= 100", s.Dispatched)
	}
	if s.PoolHits == 0 {
		t.Error("event pool never reused")
	}
}
