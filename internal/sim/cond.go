package sim

// Cond is a broadcast condition bound to an engine. Processes and
// callback chains wait on a predicate; whoever mutates the guarded state
// calls Broadcast to re-test the waiters. Wakeups happen at the instant
// of the broadcast, preserving determinism: every waiter is a callback
// (a blocked process's is its wake), released in one FIFO in wait order.
type Cond struct {
	e       *Engine
	waiters []func()
}

// NewCond returns a condition bound to e.
func NewCond(e *Engine) *Cond { return &Cond{e: e} }

// Wait blocks p until pred() is true. pred is evaluated immediately and
// after every Broadcast; it must be a pure function of simulation state.
func (c *Cond) Wait(p *Proc, pred func() bool) {
	for !pred() {
		c.waitFunc(p.wake)
		p.park()
	}
}

// waitFunc queues fn behind the current waiters; the next Broadcast
// schedules it.
func (c *Cond) waitFunc(fn func()) {
	c.waiters = append(c.waiters, fn)
}

// Broadcast wakes every current waiter so it can re-test its predicate.
// Safe to call from processes or engine callbacks. The waiter slice is
// kept for the next Wait, its entries cleared so it pins no process.
func (c *Cond) Broadcast() {
	if len(c.waiters) == 0 {
		return
	}
	for i, fn := range c.waiters {
		c.e.At(c.e.now, fn)
		c.waiters[i] = nil
	}
	c.waiters = c.waiters[:0]
}

// Flag is an int64 cell with waitable updates — the simulation analogue of
// a memory word that GPU threads poll (e.g. sliceRdy flags). The zero
// value is unusable; create flags with NewFlag or NewFlags.
type Flag struct {
	val  int64
	cond Cond
}

// NewFlag returns a flag with value 0.
func NewFlag(e *Engine) *Flag { return &Flag{cond: Cond{e: e}} }

// NewFlags returns n flags with value 0, in one allocation.
func NewFlags(e *Engine, n int) []Flag {
	fs := make([]Flag, n)
	for i := range fs {
		fs[i].cond.e = e
	}
	return fs
}

// Value returns the current value.
func (f *Flag) Value() int64 { return f.val }

// Set stores v and wakes waiters.
func (f *Flag) Set(v int64) {
	f.val = v
	f.cond.Broadcast()
}

// Add increments the flag by delta and wakes waiters.
func (f *Flag) Add(delta int64) {
	f.val += delta
	f.cond.Broadcast()
}

// WaitGE blocks until the flag value is >= v.
func (f *Flag) WaitGE(p *Proc, v int64) {
	f.cond.Wait(p, func() bool { return f.val >= v })
}

// WaitEQ blocks until the flag value equals v.
func (f *Flag) WaitEQ(p *Proc, v int64) {
	f.cond.Wait(p, func() bool { return f.val == v })
}

// WaitGEFunc is WaitGE for a chain of engine callbacks: when the value
// is >= v it reports true, and the caller goes on inline; otherwise it
// queues fn in the same FIFO as waiting processes and reports false, and
// fn runs at the next update. Like a woken process, fn must test again:
// it calls WaitGEFunc once more and waits on while the value is still
// below v.
func (f *Flag) WaitGEFunc(v int64, fn func()) bool {
	if f.val >= v {
		return true
	}
	f.cond.waitFunc(fn)
	return false
}

// WaitEQFunc is WaitEQ for a chain of engine callbacks, as WaitGEFunc
// is for WaitGE.
func (f *Flag) WaitEQFunc(v int64, fn func()) bool {
	if f.val == v {
		return true
	}
	f.cond.waitFunc(fn)
	return false
}

// Semaphore is a counting resource with FIFO admission, used e.g. for
// occupancy-bounded workgroup slots on a compute unit.
type Semaphore struct {
	e         *Engine
	available int
	queue     []*semWaiter
}

type semWaiter struct {
	fn func() // run once the permits are granted
	n  int
}

// NewSemaphore returns a semaphore holding n permits.
func NewSemaphore(e *Engine, n int) *Semaphore {
	if n < 0 {
		panic("sim: negative semaphore capacity")
	}
	return &Semaphore{e: e, available: n}
}

// Available reports the number of free permits.
func (s *Semaphore) Available() int { return s.available }

// Acquire takes n permits, blocking in FIFO order until they are free.
func (s *Semaphore) Acquire(p *Proc, n int) {
	if !s.AcquireFunc(n, p.wake) {
		p.park()
	}
}

// AcquireFunc is Acquire for a chain of engine callbacks: when n
// permits are free and nobody is queued it takes them and reports true,
// and the caller goes on inline; otherwise it queues in FIFO order,
// reports false, and fn runs once the permits are granted.
func (s *Semaphore) AcquireFunc(n int, fn func()) bool {
	if n <= 0 || s.TryAcquire(n) {
		return true
	}
	s.queue = append(s.queue, &semWaiter{fn: fn, n: n})
	return false
}

// TryAcquire takes n permits if immediately available and nobody is queued.
func (s *Semaphore) TryAcquire(n int) bool {
	if len(s.queue) == 0 && s.available >= n {
		s.available -= n
		return true
	}
	return false
}

// Release returns n permits and admits queued waiters.
func (s *Semaphore) Release(n int) {
	if n <= 0 {
		return
	}
	s.available += n
	s.dispatch()
}

// dispatch admits queue-head waiters while permits suffice (strict FIFO:
// a large request at the head blocks later small ones, avoiding starvation).
func (s *Semaphore) dispatch() {
	for len(s.queue) > 0 && s.queue[0].n <= s.available {
		w := s.queue[0]
		s.queue[0] = nil // the backing array must not pin the admitted waiter
		s.queue = s.queue[1:]
		s.available -= w.n
		s.e.At(s.e.now, w.fn)
	}
}

// WaitGroup counts outstanding activities and lets processes wait for
// completion — the simulation analogue of sync.WaitGroup.
type WaitGroup struct {
	n    int
	cond Cond
}

// NewWaitGroup returns an empty wait group.
func NewWaitGroup(e *Engine) *WaitGroup { return &WaitGroup{cond: Cond{e: e}} }

// Add adjusts the counter by delta.
func (wg *WaitGroup) Add(delta int) {
	wg.n += delta
	if wg.n < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if wg.n == 0 {
		wg.cond.Broadcast()
	}
}

// Done decrements the counter.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait blocks p until the counter reaches zero.
func (wg *WaitGroup) Wait(p *Proc) {
	wg.cond.Wait(p, func() bool { return wg.n == 0 })
}

// ForkJoin runs body(rp, i) for i in [0,n) on n new processes named
// name/i and blocks p until every one has returned — the fan-out of an
// operator over its ranks, or of a collective over its ranks and peers.
// The processes are spawned in index order at the current
// instant, so they start in that order; n <= 0 spawns nothing and
// returns at once.
func (p *Proc) ForkJoin(n int, name string, body func(rp *Proc, i int)) {
	if n <= 0 {
		return
	}
	wg := NewWaitGroup(p.e)
	wg.Add(n)
	for i := 0; i < n; i++ {
		p.e.spawn(name, i, func(rp *Proc) {
			body(rp, i)
			wg.Done()
		})
	}
	wg.Wait(p)
}
