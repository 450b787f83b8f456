package sim

import (
	"errors"
	"fmt"
	"iter"
	"strconv"
)

// event is a scheduled callback; waking a parked process is one too
// (its Proc.wake). Events are pooled: the engine owns every event it
// hands out and recycles it after dispatch, so holders (e.g. Resource
// timers) must drop their reference no later than cancellation. An
// event's time is its instant's (or, in the same-instant queue, the
// clock's).
type event struct {
	// seq breaks ties: FIFO among equal times. It is taken from the
	// engine's counter when the event is scheduled, except for a
	// Resource timer, which carries the seq reserved at its resource's
	// last trigger of the instant (see Resource.reallocate).
	seq uint64
	fn  func() // run on the engine goroutine
	// cancelled events stay queued but are skipped when reached.
	cancelled bool
	heaped    bool // in an instant, not the same-instant queue
}

// instant is one pending time and the events scheduled for it, in seq
// order from head on; the entries before head have been dispatched or
// purged.
type instant struct {
	at   Time
	evs  []*event
	head int
}

// insert queues ev in seq order. A fresh seq is the highest yet, so it
// appends; a Resource timer's reserved seq may precede events scheduled
// into the instant since the reservation, and sorts in from the tail.
func (in *instant) insert(ev *event) {
	in.evs = append(in.evs, ev)
	i := len(in.evs) - 1
	for ; i > in.head && in.evs[i-1].seq > ev.seq; i-- {
		in.evs[i] = in.evs[i-1]
	}
	in.evs[i] = ev
}

// instantQueue is a binary min-heap of pending instants by time. No two
// instants share a time, so the pop sequence depends only on the set of
// times pushed, never on how the heap arranged them.
type instantQueue []*instant

func (q *instantQueue) push(in *instant) {
	*q = append(*q, in)
	q.up(len(*q) - 1)
}

// pop removes and returns the earliest instant; the queue is non-empty.
func (q *instantQueue) pop() *instant {
	old := *q
	n := len(old) - 1
	in := old[0]
	old[0] = old[n]
	old[n] = nil
	*q = old[:n]
	if n > 0 {
		q.down(0)
	}
	return in
}

// init restores the heap order over arbitrary contents.
func (q instantQueue) init() {
	for i := len(q)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

func (q instantQueue) up(j int) {
	in := q[j]
	for j > 0 {
		i := (j - 1) / 2
		if in.at >= q[i].at {
			break
		}
		q[j] = q[i]
		j = i
	}
	q[j] = in
}

func (q instantQueue) down(i int) {
	n := len(q)
	in := q[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].at < q[c].at {
			c = r
		}
		if q[c].at >= in.at {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = in
}

const (
	// maxPool bounds the event and flow free lists so pathological
	// bursts don't pin memory for the rest of a long sweep.
	maxPool = 4096
	// compactMin is the number of queued events below which lazy
	// purging is always cheap enough; compaction only triggers above it.
	compactMin = 64
	// maxSpareInstants bounds the instant free list, and each spare
	// keeps room for at most maxPool events, for the same reason.
	// Pending instants stay few (a handful per engine in the
	// benchmark's workloads), however many events each holds.
	maxSpareInstants = 16
)

// Engine is a deterministic discrete-event simulator. The zero value is
// not usable; create engines with NewEngine.
//
// Scheduling maintains a strict (time, seq) order, where seq is a global
// monotone counter assigned at schedule time (or, for a Resource timer,
// reserved at the trigger that armed it), so equal-time events run in
// FIFO order. Two structures hold pending events. An event scheduled
// before the clock reaches its time joins that time's instant, which
// keeps its events in seq order; a binary min-heap orders the pending
// instants by time, and a map (with a one-entry cache of the instant
// last scheduled into) finds an instant by its time. An event scheduled
// *at* the instant currently being executed goes to a flat FIFO (nowq)
// instead. Every nowq entry was necessarily scheduled after every event
// of its instant (the clock had already reached it), so dispatching the
// instant's events first and the nowq second reproduces exact
// (time, seq) order. Lockstep workloads schedule hundreds of events into
// each of a few pending instants, so scheduling is mostly an append and
// the heap only orders the distinct times.
type Engine struct {
	now      Time
	queue    instantQueue
	instants map[Time]*instant // the instants in queue, by time
	last     *instant          // the instant last scheduled into, or nil
	pending  int               // events in the instants, cancelled ones included
	seq      uint64
	running  bool

	// live holds every process spawned and not yet exited, each at its
	// Proc.slot, so an abnormal exit from Run can stop the parked ones.
	live []*Proc

	// Same-instant FIFO: events scheduled for the instant being executed.
	nowq     []*event
	nowqHead int

	pool       []*event   // event free list
	spare      []*instant // instant free list
	flows      []*flow    // Resource flow free list
	ncancelled int        // cancelled events still in the instants

	// dirty lists the resources triggered since the last settle; each
	// water-fills and arms its completion timer once per instant.
	dirty []*Resource

	// Runtime counters (see Stats).
	nDispatched uint64
	nSpawned    uint64
	nPoolHits   uint64
	maxHeap     int
	reported    Stats // portion already flushed to the global accumulator
}

// NewEngine returns an empty engine with the clock at zero. Its
// processes are coroutines that run on whichever goroutine calls Run,
// one at a time and only while the engine waits for them, so engine
// state needs no synchronization: the exclusive-runner invariant holds
// by construction.
func NewEngine() *Engine { return &Engine{instants: make(map[Time]*instant)} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

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
	ev.fn = nil
	ev.cancelled = false
	ev.heaped = false
	if len(e.pool) < maxPool {
		e.pool = append(e.pool, ev)
	}
}

// instantAt returns the pending instant for time t, adding one if there
// is none.
func (e *Engine) instantAt(t Time) *instant {
	if in := e.last; in != nil && in.at == t {
		return in
	}
	in := e.instants[t]
	if in == nil {
		if n := len(e.spare); n > 0 {
			in = e.spare[n-1]
			e.spare[n-1] = nil
			e.spare = e.spare[:n-1]
		} else {
			in = &instant{}
		}
		in.at = t
		e.instants[t] = in
		e.queue.push(in)
	}
	e.last = in
	return in
}

// forget removes in, which has left the heap and holds no event, from
// the map, and recycles it.
func (e *Engine) forget(in *instant) {
	delete(e.instants, in.at)
	if e.last == in {
		e.last = nil
	}
	if len(e.spare) < maxSpareInstants {
		if cap(in.evs) > maxPool {
			in.evs = nil
		}
		in.evs, in.head = in.evs[:0], 0
		e.spare = append(e.spare, in)
	}
}

// next removes the first queued event of in, which holds one, and
// returns it; a cancelled event is recycled instead, and next returns
// nil.
func (e *Engine) next(in *instant) *event {
	ev := in.evs[in.head]
	in.evs[in.head] = nil
	in.head++
	e.pending--
	if ev.cancelled {
		e.ncancelled--
		e.free(ev)
		return nil
	}
	return ev
}

// enqueue schedules fn at time t (clamped to now) under a fresh seq
// and returns the pooled event, which stays valid until dispatched or
// cancelled.
func (e *Engine) enqueue(t Time, fn func()) *event {
	seq := e.seq
	e.seq++
	return e.enqueueSeq(t, seq, fn)
}

// enqueueSeq is enqueue under a seq reserved earlier from e.seq. A
// reserved seq may only be used for a future instant: the same-instant
// queue relies on its seqs rising in append order.
func (e *Engine) enqueueSeq(t Time, seq uint64, fn func()) *event {
	if t < e.now {
		t = e.now
	}
	ev := e.newEvent()
	ev.seq, ev.fn = seq, fn
	if e.running && t == e.now {
		e.nowq = append(e.nowq, ev)
		return ev
	}
	ev.heaped = true
	e.instantAt(t).insert(ev)
	e.pending++
	if e.pending > e.maxHeap {
		e.maxHeap = e.pending
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
		if e.pending > compactMin && e.ncancelled*2 > e.pending {
			e.compact()
		}
	}
}

// compact drops the cancelled events from every instant. Purging is
// normally lazy (skipped when reached), but condition-heavy runs can
// cancel faster than they dispatch; compaction keeps the instants from
// growing unboundedly once more than half of their events are dead. It
// also drops the instants it empties, except the earliest, which may be
// the one being dispatched: purgeHead or the run loop drops that one.
func (e *Engine) compact() {
	kept := e.queue[:0]
	for i, in := range e.queue {
		evs := in.evs[:0]
		for _, ev := range in.evs[in.head:] {
			if ev.cancelled {
				e.free(ev)
				continue
			}
			evs = append(evs, ev)
		}
		clear(in.evs[len(evs):])
		in.evs, in.head = evs, 0
		if len(evs) == 0 && i > 0 {
			e.forget(in)
			continue
		}
		kept = append(kept, in)
	}
	clear(e.queue[len(kept):])
	e.queue = kept
	e.queue.init()
	e.pending -= e.ncancelled
	e.ncancelled = 0
}

// settle water-fills every resource triggered since the last settle
// and arms its completion timer. The run loop settles once per instant,
// after the instant's events have all run; a trigger with the engine
// stopped settles at once.
func (e *Engine) settle() {
	for i, r := range e.dirty {
		e.dirty[i] = nil
		r.settle()
	}
	e.dirty = e.dirty[:0]
}

// purgeHead frees the cancelled events at the front of the earliest
// instant, and drops each earliest instant left with none.
func (e *Engine) purgeHead() {
	for len(e.queue) > 0 {
		in := e.queue[0]
		for in.head < len(in.evs) {
			if !in.evs[in.head].cancelled {
				return
			}
			e.next(in)
		}
		e.forget(e.queue.pop())
	}
}

// At schedules fn to run on the engine goroutine at time t (>= now).
// Callbacks must not block; they may spawn processes and signal conditions.
func (e *Engine) At(t Time, fn func()) {
	e.enqueue(t, fn)
}

// After schedules fn to run d from now.
func (e *Engine) After(d Duration, fn func()) { e.At(e.now.Add(d), fn) }

// Proc is a simulated process: a coroutine that the engine resumes when
// the process's wake event is dispatched and that hands control back
// when it parks. The engine and its processes therefore never run at
// the same time. All Proc methods must be called from the process's
// own body.
//
// Every blocking primitive is its callback form with wake as the
// callback, followed by one park: the engine knows only callbacks.
type Proc struct {
	e    *Engine
	wake func() // resumes the process; bound once at spawn
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
	p.wake = func() { p.next() }
	e.live = append(e.live, p)
	// The process starts via a queue event so that spawn order is
	// preserved deterministically.
	e.enqueue(e.now, p.wake)
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

// Sleep suspends the process for d of virtual time: its wake is an
// After callback, so a chain of After callbacks steps exactly as a
// sleeping process does.
func (p *Proc) Sleep(d Duration) {
	p.e.After(d, p.wake)
	p.park()
}

// Yield reschedules the process at the current instant, letting every
// other event already queued for this instant run first.
func (p *Proc) Yield() { p.Sleep(0) }

// dispatch runs one event's callback. The event is recycled first, so
// the callback may not retain it. A process wake resumes the process's
// coroutine until it parks or exits, and a process panic or Goexit
// re-raises here, on the goroutine running the engine. Only one of the
// engine and its processes runs at a time, by construction: a resumed
// process runs inside this call, and the engine inside the process's
// park.
func (e *Engine) dispatch(ev *event) {
	e.nDispatched++
	fn := ev.fn
	e.free(ev)
	fn()
}

// Run executes events until the queue is empty or the optional horizon is
// reached. It returns the final clock value. Run panics if a simulated
// process panicked or if the simulation deadlocks (live processes remain
// but no events are schedulable); a process that calls runtime.Goexit
// ends Run's caller. On each of these exits Run first stops every
// process still parked.
func (e *Engine) Run() Time { return e.RunUntil(Forever) }

// RunUntil executes events with timestamps <= horizon.
func (e *Engine) RunUntil(horizon Time) Time {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	if horizon < e.now {
		return e.now
	}
	e.running = true
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
			if len(e.live) > 0 {
				panic(fmt.Sprintf("sim: deadlock at %v: %d process(es) blocked with empty event queue", e.now, len(e.live)))
			}
			clean = true
			return e.now
		}
		in := e.queue[0]
		if in.at > horizon {
			// Leave it queued for a later Run call; its sequence
			// numbers are preserved, so FIFO tie-breaks among
			// equal-time events survive the horizon boundary.
			// Processes stay parked and resume in that call.
			clean = true
			return e.now
		}

		// Run the instant: first its queued events (all scheduled
		// before the clock got here, so their seqs precede every
		// nowq entry), then the nowq FIFO, which may grow while
		// draining. The instant stays at the heap top until its
		// events are done, so compaction and the queued-event count
		// treat its undispatched rest like any other instant's. Only
		// this loop moves the clock, so the instant's events all see
		// e.now.
		e.now = in.at
		for in.head < len(in.evs) {
			if ev := e.next(in); ev != nil {
				e.dispatch(ev)
			}
		}
		e.forget(e.queue.pop())
		// Free the cancelled events now at the front before the nowq
		// runs, so that its schedules can reuse them.
		e.purgeHead()
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
