package sim

import (
	"errors"
	"fmt"
	"iter"
	"strconv"
)

// event is a scheduled occurrence: either waking a parked process or
// invoking a callback while no process runs. Events are pooled: the
// engine owns every event it hands out and recycles it after dispatch,
// so holders (e.g. Resource timers) must drop their reference no later
// than cancellation.
type event struct {
	at Time
	// seq breaks ties: FIFO among equal times. It is taken from the
	// engine's counter when the event is scheduled, except for a
	// Resource timer, which carries the seq reserved at its resource's
	// last trigger of the instant (see Resource.reallocate).
	seq  uint64
	proc *Proc  // non-nil: wake this process
	fn   func() // non-nil: run this callback on the engine goroutine
	// cancelled events stay queued but are skipped when reached.
	cancelled bool
	heaped    bool // in the heap, not the same-instant queue
}

// before reports whether a is dispatched ahead of b: (time, seq) order.
// No two events share a seq, so the order is total.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue is a binary min-heap of events in (time, seq) order. The
// order is total, so the pop sequence depends only on the set of events
// pushed, never on how the heap arranged them.
type eventQueue []*event

func (q *eventQueue) push(ev *event) {
	*q = append(*q, ev)
	q.up(len(*q) - 1)
}

// pop removes and returns the earliest event; the queue is non-empty.
func (q *eventQueue) pop() *event {
	old := *q
	n := len(old) - 1
	ev := old[0]
	old[0] = old[n]
	old[n] = nil
	*q = old[:n]
	if n > 0 {
		q.down(0)
	}
	return ev
}

// init restores the heap order over arbitrary contents.
func (q eventQueue) init() {
	for i := len(q)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

func (q eventQueue) up(j int) {
	ev := q[j]
	for j > 0 {
		i := (j - 1) / 2
		if !ev.before(q[i]) {
			break
		}
		q[j] = q[i]
		j = i
	}
	q[j] = ev
}

func (q eventQueue) down(i int) {
	n := len(q)
	ev := q[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(q[c]) {
			c = r
		}
		if !q[c].before(ev) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = ev
}

const (
	// maxPool bounds the event and flow free lists so pathological
	// bursts don't pin memory for the rest of a long sweep.
	maxPool = 4096
	// compactMin is the heap size below which lazy purging is always
	// cheap enough; compaction only triggers above it.
	compactMin = 64
)

// Engine is a deterministic discrete-event simulator. The zero value is
// not usable; create engines with NewEngine.
//
// Scheduling maintains a strict (time, seq) order, where seq is a global
// monotone counter assigned at schedule time (or, for a Resource timer,
// reserved at the trigger that armed it), so equal-time events run in
// FIFO order. Two structures hold pending events: a binary heap for
// future instants and a flat FIFO (nowq) for events scheduled *at* the
// instant currently being executed. Every nowq entry was necessarily
// scheduled after every same-time heap entry (the clock had already
// reached the instant), so draining the heap's equal-time run first and
// the nowq second reproduces exact (time, seq) order without pushing
// same-instant work through the heap.
type Engine struct {
	now     Time
	queue   eventQueue
	seq     uint64
	running bool

	// live holds every process spawned and not yet exited, each at its
	// Proc.slot, so an abnormal exit from Run can stop the parked ones.
	live []*Proc

	// Same-instant FIFO: events scheduled for the instant being executed.
	nowq     []*event
	nowqHead int

	// horizon is the active RunUntil bound; Proc.Sleep's direct-handoff
	// fast path must not advance the clock past it.
	horizon Time

	pool       []*event // event free list
	flows      []*flow  // Resource flow free list
	ncancelled int      // cancelled events still in the heap

	// dirty lists the resources triggered since the last settle; each
	// water-fills and arms its completion timer once per instant.
	dirty []*Resource

	// Runtime counters (see Stats).
	nDispatched uint64
	nSpawned    uint64
	nPoolHits   uint64
	nHandoffs   uint64
	maxHeap     int
	reported    Stats // portion already flushed to the global accumulator

	// Sharded-engine hookup: when this engine is one shard of a Sharded
	// world, shard is its index and postSeq orders its outgoing
	// inter-shard messages (FIFO per source at the merge barrier).
	shard   int
	postSeq uint64
}

// NewEngine returns an empty engine with the clock at zero. Its
// processes are coroutines that run on whichever goroutine calls Run,
// one at a time and only while the engine waits for them, so engine
// state needs no synchronization: the exclusive-runner invariant holds
// by construction.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// EngineFor implements World: a bare engine places every node's state on
// itself — the single-shard degenerate case of the sharded engine.
func (e *Engine) EngineFor(node int) *Engine { return e }

// Post implements World: on a bare engine a cross-node message is an
// ordinary delayed callback (node ids only matter across shards).
func (e *Engine) Post(from, to int, d Duration, fn func()) { e.After(d, fn) }

// NextEventTime reports the timestamp of the earliest pending event, or
// ok=false when the queue is empty. Used by the sharded engine's window
// computation.
func (e *Engine) NextEventTime() (Time, bool) {
	e.purgeHead()
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].at, true
}

// newEvent takes an event from the free list, or allocates one.
func (e *Engine) newEvent() *event {
	if n := len(e.pool); n > 0 {
		ev := e.pool[n-1]
		e.pool = e.pool[:n-1]
		e.nPoolHits++
		return ev
	}
	return &event{}
}

// free recycles a dispatched or purged event.
func (e *Engine) free(ev *event) {
	ev.proc = nil
	ev.fn = nil
	ev.cancelled = false
	ev.heaped = false
	if len(e.pool) < maxPool {
		e.pool = append(e.pool, ev)
	}
}

// enqueue schedules an occurrence at time t (clamped to now) under a
// fresh seq and returns the pooled event, which stays valid until
// dispatched or cancelled.
func (e *Engine) enqueue(t Time, p *Proc, fn func()) *event {
	seq := e.seq
	e.seq++
	return e.enqueueSeq(t, seq, p, fn)
}

// enqueueSeq is enqueue under a seq reserved earlier from e.seq. A
// reserved seq may only be used for a future instant: the same-instant
// queue relies on its seqs rising in append order.
func (e *Engine) enqueueSeq(t Time, seq uint64, p *Proc, fn func()) *event {
	if t < e.now {
		t = e.now
	}
	ev := e.newEvent()
	ev.at, ev.seq, ev.proc, ev.fn = t, seq, p, fn
	if e.running && t == e.now {
		e.nowq = append(e.nowq, ev)
	} else {
		ev.heaped = true
		e.queue.push(ev)
		if len(e.queue) > e.maxHeap {
			e.maxHeap = len(e.queue)
		}
	}
	return ev
}

// cancel marks ev as a no-op. The event object is reclaimed by the
// engine when reached (or compacted away); callers must drop their
// reference immediately.
func (e *Engine) cancel(ev *event) {
	if ev == nil || ev.cancelled {
		return
	}
	ev.cancelled = true
	if ev.heaped {
		e.ncancelled++
		if len(e.queue) > compactMin && e.ncancelled*2 > len(e.queue) {
			e.compact()
		}
	}
}

// compact rebuilds the heap without its cancelled events. Purging is
// normally lazy (skipped at pop time), but condition-heavy runs can
// cancel faster than they pop; compaction keeps the heap from growing
// unboundedly once more than half of it is dead.
func (e *Engine) compact() {
	live := e.queue[:0]
	for _, ev := range e.queue {
		if ev.cancelled {
			e.free(ev)
			continue
		}
		live = append(live, ev)
	}
	for i := len(live); i < len(e.queue); i++ {
		e.queue[i] = nil
	}
	e.queue = live
	e.queue.init()
	e.ncancelled = 0
}

// settle water-fills every resource triggered since the last settle
// and arms its completion timer. The run loop settles once per instant,
// after the instant's events have all run; Sleep's direct handoff
// settles before it looks at the heap; a trigger with the engine
// stopped settles at once.
func (e *Engine) settle() {
	for i, r := range e.dirty {
		e.dirty[i] = nil
		r.settle()
	}
	e.dirty = e.dirty[:0]
}

// purgeHead pops cancelled events off the heap top.
func (e *Engine) purgeHead() {
	for len(e.queue) > 0 && e.queue[0].cancelled {
		e.ncancelled--
		e.free(e.queue.pop())
	}
}

// At schedules fn to run on the engine goroutine at time t (>= now).
// Callbacks must not block; they may spawn processes and signal conditions.
func (e *Engine) At(t Time, fn func()) {
	e.enqueue(t, nil, fn)
}

// After schedules fn to run d from now.
func (e *Engine) After(d Duration, fn func()) { e.At(e.now.Add(d), fn) }

// Proc is a simulated process: a coroutine that the engine resumes when
// the process's wake event is dispatched and that hands control back
// when it parks. The engine and its processes therefore never run at
// the same time. All Proc methods must be called from the process's
// own body.
type Proc struct {
	e *Engine
	// name is the spawn name, or a ForkJoin child's fork name, which
	// Name suffixes with "/" and idx.
	name string
	idx  int // ForkJoin child index, or -1
	slot int // index in e.live while the process is alive, then -1

	// Coroutine handles from iter.Pull, nil once the body has exited
	// (or been stopped) so an exited *Proc does not pin its body.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// Name returns the diagnostic name given at spawn; a ForkJoin child is
// named name/i.
func (p *Proc) Name() string {
	if p.idx < 0 {
		return p.name
	}
	return p.name + "/" + strconv.Itoa(p.idx)
}

// Engine returns the owning engine.
func (p *Proc) Engine() *Engine { return p.e }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// errStopped unwinds the body of a process that was stopped while
// parked; the process's exit handler swallows it.
var errStopped = errors.New("sim: process stopped")

// Go spawns fn as a new process starting at the current time. It may be
// called from the host (before Run), from engine callbacks, or from other
// processes. The body runs as an iter.Pull coroutine: dispatch resumes
// it with next and park suspends it with yield, so a park/resume is one
// coroutine switch on the goroutine that runs the engine.
func (e *Engine) Go(name string, fn func(*Proc)) { e.spawn(name, -1, fn) }

// spawn is Go for a process named name, or name/idx when idx >= 0; the
// name is formatted only when asked for.
func (e *Engine) spawn(name string, idx int, fn func(*Proc)) {
	e.nSpawned++
	p := &Proc{e: e, name: name, idx: idx, slot: len(e.live)}
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer p.exit()
		fn(p)
	})
	e.live = append(e.live, p)
	// The process starts via a queue event so that spawn order is
	// preserved deterministically.
	e.enqueue(e.now, p, nil)
}

// exit runs when the body returns, panics or calls runtime.Goexit. It
// retires the process and turns a panic into the engine's error, which
// iter.Pull re-raises from next on the goroutine running the engine (a
// Goexit propagates the same way). A stopped process was retired by
// stopProcs already; whatever it panics with while unwinding is
// swallowed, so it cannot replace the failure that stopped it.
func (p *Proc) exit() {
	r := recover()
	if p.slot < 0 {
		return
	}
	p.e.retire(p)
	if r != nil {
		panic(fmt.Errorf("sim: process %q panicked: %v", p.Name(), r))
	}
}

// retire removes p from the live list and drops its coroutine handles.
func (e *Engine) retire(p *Proc) {
	last := len(e.live) - 1
	e.live[p.slot] = e.live[last]
	e.live[p.slot].slot = p.slot
	e.live[last] = nil
	e.live = e.live[:last]
	p.slot = -1
	p.next, p.stop, p.yield = nil, nil, nil
}

// stopProcs stops every live process: a parked body sees yield return
// false and unwinds, one never started does not run at all. Run calls
// it on every abnormal exit (deadlock, process panic, Goexit), so no
// coroutine outlives a failed run.
func (e *Engine) stopProcs() {
	for len(e.live) > 0 {
		p := e.live[len(e.live)-1]
		stop := p.stop
		e.retire(p)
		stop()
	}
}

// park suspends the process: yield switches back to the engine's
// dispatch, and returns when dispatch resumes the process. It returns
// false only when the process is being stopped, and park then unwinds
// the body.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(errStopped)
	}
}

// Sleep suspends the process for d of virtual time.
//
// Fast path (direct handoff): when no other work precedes the wake
// instant — the same-instant queue is drained and every pending heap
// event lies strictly after the wake time — the next event the engine
// would dispatch is this process's own wake. Parking would be a pure
// switch to the engine and straight back, so the process advances the
// clock itself and keeps running. This is safe because the engine is
// suspended in the dispatch that resumed this process for the entire
// duration, and observes the new clock only after the process parks or
// exits. Resources triggered at this instant settle first, so their
// completion timers are in the heap when it is checked.
func (p *Proc) Sleep(d Duration) {
	at := p.e.now.Add(max(d, 0))
	if p.e.handoff(at) {
		return
	}
	p.e.enqueue(at, p, nil)
	p.park()
}

// Delay is Sleep for a chain of engine callbacks: when nothing precedes
// the wake instant it advances the clock d in place, as Sleep's direct
// handoff does, and reports true, and the caller goes on inline;
// otherwise it schedules fn d from now, at the (time, seq) a sleeping
// process's wake would take, and reports false. Call it only from an
// engine callback.
func (e *Engine) Delay(d Duration, fn func()) bool {
	at := e.now.Add(max(d, 0))
	if e.running && e.handoff(at) {
		return true
	}
	e.enqueue(at, nil, fn)
	return false
}

// handoff advances the clock to at in place when the next event the
// engine would dispatch is the caller's own wake at at.
func (e *Engine) handoff(at Time) bool {
	if e.nowqHead != len(e.nowq) || at > e.horizon {
		return false
	}
	e.settle()
	e.purgeHead()
	if len(e.queue) > 0 && e.queue[0].at <= at {
		return false
	}
	e.now = at
	e.nHandoffs++
	return true
}

// Yield reschedules the process at the current instant, letting every
// other event already queued for this instant run first.
func (p *Proc) Yield() { p.Sleep(0) }

// dispatch runs one event: a callback inline, a process wake by
// resuming the process's coroutine until it parks or exits. The event
// is recycled before control transfers, so neither the callback nor the
// process may retain it. A process panic or Goexit re-raises here, on
// the goroutine running the engine. Only one of the engine and its
// processes runs at a time, by construction: a resumed process runs
// inside this call, and the engine inside the process's park.
func (e *Engine) dispatch(ev *event) {
	e.nDispatched++
	if ev.fn != nil {
		fn := ev.fn
		e.free(ev)
		fn()
		return
	}
	p := ev.proc
	e.free(ev)
	p.next()
}

// Run executes events until the queue is empty or the optional horizon is
// reached. It returns the final clock value. Run panics if a simulated
// process panicked or if the simulation deadlocks (live processes remain
// but no events are schedulable); a process that calls runtime.Goexit
// ends Run's caller. On each of these exits Run first stops every
// process still parked.
func (e *Engine) Run() Time { return e.RunUntil(Forever) }

// RunUntil executes events with timestamps <= horizon.
func (e *Engine) RunUntil(horizon Time) Time { return e.run(horizon, false) }

// runWindow executes events with timestamps <= horizon inside one
// conservative window: unlike RunUntil, draining the local queue while
// processes stay blocked is not a deadlock — their wakeups may arrive
// as inter-shard messages at the next window barrier.
func (e *Engine) runWindow(horizon Time) Time { return e.run(horizon, true) }

func (e *Engine) run(horizon Time, windowed bool) Time {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	if horizon < e.now {
		return e.now
	}
	e.running = true
	e.horizon = horizon
	clean := false
	defer func() {
		e.running = false
		if !clean {
			e.stopProcs()
		}
		e.flushStats()
	}()

	for {
		// The instant has drained: arm the completion timers of the
		// resources it triggered before looking for the next event.
		e.settle()
		e.purgeHead()
		if len(e.queue) == 0 {
			if len(e.live) > 0 && !windowed {
				panic(fmt.Sprintf("sim: deadlock at %v: %d process(es) blocked with empty event queue", e.now, len(e.live)))
			}
			clean = true
			return e.now
		}
		if e.queue[0].at > horizon {
			// Leave it queued for a later Run call; its sequence
			// number is preserved, so FIFO tie-breaks among
			// equal-time events survive the horizon boundary.
			// Processes stay parked and resume in that call.
			clean = true
			return e.now
		}
		ev := e.queue.pop()
		e.now = ev.at
		e.dispatch(ev)

		// Drain the remainder of this instant: first the heap's
		// equal-time run (all scheduled before the clock got here,
		// so their seqs precede every nowq entry), then the nowq
		// FIFO, which may grow while draining. A dispatched process
		// may fast-forward e.now via the Sleep direct handoff; that
		// only happens when both queues have nothing at or before
		// the new time, so the drain stays correct.
		for len(e.queue) > 0 {
			h := e.queue[0]
			if h.cancelled {
				e.queue.pop()
				e.ncancelled--
				e.free(h)
				continue
			}
			if h.at != e.now {
				break
			}
			e.queue.pop()
			e.dispatch(h)
		}
		for e.nowqHead < len(e.nowq) {
			// Dispatches may keep appending to the current instant
			// (callback chains, broadcast cascades); shift the
			// drained prefix out once it dominates so the queue
			// doesn't grow with the length of the chain. Amortized
			// O(1): each entry moves at most once per halving.
			if e.nowqHead > 32 && e.nowqHead*2 >= len(e.nowq) {
				n := copy(e.nowq, e.nowq[e.nowqHead:])
				for i := n; i < len(e.nowq); i++ {
					e.nowq[i] = nil
				}
				e.nowq = e.nowq[:n]
				e.nowqHead = 0
			}
			nv := e.nowq[e.nowqHead]
			e.nowq[e.nowqHead] = nil
			e.nowqHead++
			if nv.cancelled {
				e.free(nv)
				continue
			}
			e.dispatch(nv)
		}
		e.nowq = e.nowq[:0]
		e.nowqHead = 0
	}
}
