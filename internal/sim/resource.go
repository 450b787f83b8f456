package sim

import (
	"math"
	"slices"
)

// Resource models a shared bandwidth server (memory interface, fabric
// link, NIC) with processor-sharing semantics: concurrent transfers split
// the capacity fairly, subject to an optional per-flow rate cap and an
// efficiency curve eff(n) that scales usable capacity with the number of
// active flows. The efficiency curve is how memory-contention knees (row
// buffer thrash at high occupancy) are expressed.
//
// Rates are piecewise constant between membership changes, so transfer
// times are exact for the fluid model. Every change (an admission, a
// completion, a rate scale) advances all in-flight transfers at once;
// the water-filling allocation and the next completion are recomputed
// once per simulated instant, however many changes the instant holds
// (see reallocate). All methods must be called from process context or
// engine callbacks (single-threaded by construction).
type Resource struct {
	e        *Engine
	name     string
	capacity float64           // peak bytes/sec
	eff      func(int) float64 // usable fraction of capacity given n flows

	flows      []*flow
	lastUpdate Time
	timer      *event
	onTimer    func() // r.tick, bound once

	// Pending settle, recorded by reallocate: the usable capacity and
	// the timer seq of the instant's last trigger, and whether the
	// resource is on its engine's dirty list.
	usableNow float64
	timerSeq  uint64
	dirty     bool
	sorted    []*flow // waterfill scratch

	// rateScale multiplies the usable capacity — the fault-injection
	// hook (degraded link, straggling memory system). Zero means the
	// nominal 1.0; values other than 1 scale every concurrent flow's
	// share for as long as the scale is in force.
	rateScale float64

	// Stats.
	totalBytes float64
	busyTime   Duration // time with >=1 active flow
}

// flow is one transfer in a Resource. Flows are recycled through their
// engine's free list once their completion callback is scheduled.
type flow struct {
	remaining float64
	cap       float64 // per-flow rate cap; 0 means uncapped
	rate      float64
	onDone    func() // completion callback, or nil
}

// newFlow takes a flow from the engine's free list, or allocates one.
func (e *Engine) newFlow(bytes, perFlowCap float64) *flow {
	var f *flow
	if n := len(e.flows); n > 0 {
		f = e.flows[n-1]
		e.flows[n-1] = nil
		e.flows = e.flows[:n-1]
	} else {
		f = &flow{}
	}
	f.remaining, f.cap = bytes, perFlowCap
	return f
}

// freeFlow recycles a completed flow no resource holds any longer.
func (e *Engine) freeFlow(f *flow) {
	*f = flow{}
	if len(e.flows) < maxPool {
		e.flows = append(e.flows, f)
	}
}

// NewResource returns a bandwidth server with the given peak capacity in
// bytes per second. A nil eff means eff(n)=1 for all n.
func NewResource(e *Engine, name string, bytesPerSec float64, eff func(n int) float64) *Resource {
	if bytesPerSec <= 0 {
		panic("sim: resource capacity must be positive: " + name)
	}
	r := &Resource{e: e, name: name, capacity: bytesPerSec, eff: eff}
	r.onTimer = r.tick
	return r
}

// Name returns the resource's diagnostic name.
func (r *Resource) Name() string { return r.name }

// Capacity returns the configured peak bandwidth in bytes/sec.
func (r *Resource) Capacity() float64 { return r.capacity }

// ActiveFlows reports the number of in-flight transfers.
func (r *Resource) ActiveFlows() int { return len(r.flows) }

// RateScale reports the current capacity multiplier (1 when nominal).
func (r *Resource) RateScale() float64 {
	if r.rateScale == 0 {
		return 1
	}
	return r.rateScale
}

// SetRateScale scales the resource's usable capacity by f until the
// next call — the fault-injection hook for degraded links and
// straggling memory systems. In-flight transfers are advanced at the
// old rates first and reallocated at the new ones, so timing stays
// exact for the piecewise-constant fluid model. f must be positive; a
// scale of exactly 1 restores nominal behavior (and, like the zero
// value, keeps the capacity arithmetic byte-identical to an unscaled
// resource).
func (r *Resource) SetRateScale(f float64) {
	if f <= 0 {
		panic("sim: resource " + r.name + " rate scale must be positive")
	}
	if f == r.RateScale() {
		r.rateScale = f
		return
	}
	r.advance()
	r.rateScale = f
	r.reallocate()
}

// TotalBytes reports the cumulative bytes served.
func (r *Resource) TotalBytes() float64 { return r.totalBytes }

// BusyTime reports the cumulative time the resource had work.
func (r *Resource) BusyTime() Duration {
	r.advance()
	return r.busyTime
}

// Transfer moves bytes through the resource, blocking the calling process
// until completion. perFlowCap (bytes/sec) limits this flow's share; pass
// 0 for uncapped.
func (r *Resource) Transfer(p *Proc, bytes, perFlowCap float64) {
	if bytes <= 0 {
		return
	}
	r.TransferAsync(bytes, perFlowCap, p.wake)
	p.park()
}

// TransferAsync moves bytes through the resource and invokes onDone (via
// an engine callback) at completion. Used by DMA/NIC engines that overlap
// many outstanding transfers.
func (r *Resource) TransferAsync(bytes, perFlowCap float64, onDone func()) {
	if bytes <= 0 {
		if onDone != nil {
			r.e.At(r.e.now, onDone)
		}
		return
	}
	f := r.e.newFlow(bytes, perFlowCap)
	f.onDone = onDone
	r.admit(f)
}

func (r *Resource) usable(n int) float64 {
	c := r.capacity
	// Skip the multiply at nominal scale so unscaled resources keep the
	// exact historical float arithmetic (byte-identity with pre-chaos
	// runs).
	if r.rateScale != 0 && r.rateScale != 1 {
		c *= r.rateScale
	}
	if r.eff != nil {
		f := r.eff(n)
		if f < 0 {
			f = 0
		}
		c *= f
	}
	return c
}

func (r *Resource) admit(f *flow) {
	r.advance()
	r.totalBytes += f.remaining
	r.flows = append(r.flows, f)
	r.reallocate()
}

// advance applies progress since lastUpdate at the current rates and
// completes any finished flows.
func (r *Resource) advance() {
	now := r.e.now
	dt := now.Sub(r.lastUpdate)
	if dt <= 0 {
		r.lastUpdate = now
		return
	}
	if len(r.flows) > 0 {
		r.busyTime += dt
	}
	r.lastUpdate = now
	sec := dt.Seconds()
	live := r.flows[:0]
	for _, f := range r.flows {
		f.remaining -= f.rate * sec
		if f.remaining <= 1e-9 {
			f.remaining = 0
			r.complete(f)
			continue
		}
		live = append(live, f)
	}
	clear(r.flows[len(live):]) // let completed flows be collected
	r.flows = live
}

// complete finishes a flow advance has dropped from r.flows: it
// schedules the flow's callback and recycles the flow.
func (r *Resource) complete(f *flow) {
	if f.onDone != nil {
		r.e.At(r.e.now, f.onDone)
	}
	r.e.freeFlow(f)
}

// reallocate records a change after advance: it cancels the armed
// timer and, while flows remain, snapshots the usable capacity,
// reserves the event seq the completion timer will carry, and puts the
// resource on its engine's dirty list. The engine settles each dirty
// resource once per instant. Rates computed between two triggers of one
// instant would never be used (advance does nothing at dt = 0), so the
// settled timer gets the (time, seq) that recomputing at the last
// trigger would give it. The capacity is read here, not at settle,
// because eff may read state that changes later in the instant.
func (r *Resource) reallocate() {
	if r.timer != nil {
		r.e.cancel(r.timer)
		r.timer = nil
	}
	n := len(r.flows)
	if n == 0 {
		return
	}
	e := r.e
	r.usableNow = r.usable(n)
	r.timerSeq = e.seq
	e.seq++
	if !r.dirty {
		r.dirty = true
		e.dirty = append(e.dirty, r)
	}
	if !e.running {
		e.settle()
	}
}

// settle water-fills the flows and arms the timer for the next
// completion. There is at least one flow: reallocate marks a resource
// dirty only with flows, and none complete before the instant ends.
func (r *Resource) settle() {
	r.dirty = false
	r.waterfill(r.usableNow)
	min := math.MaxFloat64
	for _, f := range r.flows {
		if f.rate <= 0 {
			continue
		}
		if t := f.remaining / f.rate; t < min {
			min = t
		}
	}
	if min == math.MaxFloat64 {
		// All flows capped at zero — configuration error.
		panic("sim: resource " + r.name + " has flows with zero rate")
	}
	d := DurationOf(min)
	if d < 1 {
		d = 1
	}
	at := r.e.now.Add(d)
	if at == r.e.now {
		// The clock is at Forever, where Add saturates: no later
		// instant exists, so the flows never complete and a caller
		// blocked on them surfaces as the engine's deadlock.
		return
	}
	r.timer = r.e.enqueueSeq(at, r.timerSeq, r.onTimer)
}

func (r *Resource) tick() {
	r.timer = nil
	r.advance()
	r.reallocate()
}

// Server is an exclusive FIFO service queue with busy-time accounting —
// the contention model for in-order command processors (GPU streams,
// DMA queues): one holder at a time, waiters admitted in arrival order.
// Unlike Resource, which divides bandwidth among concurrent flows, a
// Server serializes its work items outright; the busy-time statistics
// feed per-stream occupancy and overlap reports.
type Server struct {
	e    *Engine
	name string
	sem  *Semaphore

	held      bool
	busySince Time
	busyTotal Duration
	// onBusy, when non-nil, observes busy/idle transitions (the hook
	// overlap accounting attaches to).
	onBusy func(busy bool)

	// totalWait is how long admitted holders sat queued behind earlier
	// acquirers: where queueing builds under load.
	totalWait Duration
}

// NewServer returns an idle server bound to e.
func NewServer(e *Engine, name string) *Server {
	return &Server{e: e, name: name, sem: NewSemaphore(e, 1)}
}

// Name returns the server's diagnostic name.
func (s *Server) Name() string { return s.name }

// OnBusy registers fn to observe busy/idle transitions. fn runs at the
// instant of the transition, before the acquiring (or next queued)
// process resumes.
func (s *Server) OnBusy(fn func(busy bool)) { s.onBusy = fn }

// Acquire takes exclusive hold of the server, blocking in FIFO order
// behind earlier acquirers.
func (s *Server) Acquire(p *Proc) {
	enqueued := s.e.now
	s.sem.Acquire(p, 1)
	s.totalWait += s.e.now.Sub(enqueued)
	s.held = true
	s.busySince = s.e.now
	if s.onBusy != nil {
		s.onBusy(true)
	}
}

// TotalWait reports the cumulative time admitted acquirers spent queued
// before taking the server.
func (s *Server) TotalWait() Duration { return s.totalWait }

// Release ends the current hold and admits the next waiter.
func (s *Server) Release() {
	if !s.held {
		panic("sim: release of idle server " + s.name)
	}
	s.busyTotal += s.e.now.Sub(s.busySince)
	s.held = false
	if s.onBusy != nil {
		s.onBusy(false)
	}
	s.sem.Release(1)
}

// BusyTime reports the cumulative held time, including the in-progress
// hold.
func (s *Server) BusyTime() Duration {
	if s.held {
		return s.busyTotal + s.e.now.Sub(s.busySince)
	}
	return s.busyTotal
}

// waterfill splits total among the flows: capped flows below the fair
// share get their cap; the surplus is redistributed among the rest.
func (r *Resource) waterfill(total float64) {
	n := len(r.flows)
	// Fast path: uniform uncapped or generous caps.
	share := total / float64(n)
	allAbove := true
	for _, f := range r.flows {
		if f.cap > 0 && f.cap < share {
			allAbove = false
			break
		}
	}
	if allAbove {
		for _, f := range r.flows {
			f.rate = share
		}
		return
	}
	// General water-filling: sort by cap ascending (uncapped last, ties
	// in admission order), satisfy small caps, split the remainder.
	sorted := append(r.sorted[:0], r.flows...)
	slices.SortStableFunc(sorted, func(a, b *flow) int {
		ca, cb := a.cap, b.cap
		if ca == 0 {
			ca = math.MaxFloat64
		}
		if cb == 0 {
			cb = math.MaxFloat64
		}
		switch {
		case ca < cb:
			return -1
		case cb < ca:
			return 1
		}
		return 0
	})
	remainingCap := total
	remainingFlows := n
	for _, f := range sorted {
		fair := remainingCap / float64(remainingFlows)
		if f.cap > 0 && f.cap < fair {
			f.rate = f.cap
		} else {
			f.rate = fair
		}
		remainingCap -= f.rate
		remainingFlows--
	}
	clear(sorted) // let completed flows be collected
	r.sorted = sorted[:0]
}
