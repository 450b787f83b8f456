// Package sim is a hermetic stand-in for fusedcc/internal/sim: the
// analyzers match it by the final import-path element, so the fixture
// only carries the engine surface the checks care about.
package sim

// Time is a simulated instant.
type Time int64

// Duration is a simulated span.
type Duration int64

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Engine is the serial event loop.
type Engine struct{}

// NewEngine returns an empty engine.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return 0 }

// Go spawns a registered simulated process.
func (e *Engine) Go(name string, fn func(*Proc)) {}

// At schedules fn at time t.
func (e *Engine) At(t Time, fn func()) {}

// After schedules fn d from now.
func (e *Engine) After(d Duration, fn func()) {}

// Run drains the event queue.
func (e *Engine) Run() Time { return 0 }

// Proc is a simulated process handle.
type Proc struct{}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return 0 }

// Sleep suspends the process for d.
func (p *Proc) Sleep(d Duration) {}

// Flag is a monotone counter processes wait on.
type Flag struct{}

// NewFlag returns a flag bound to e.
func NewFlag(e *Engine) *Flag { return &Flag{} }

// Add increments the flag, waking satisfied waiters.
func (f *Flag) Add(delta int64) {}

// WaitGE blocks p until the flag reaches v.
func (f *Flag) WaitGE(p *Proc, v int64) {}
