// Package sim provides a deterministic, process-oriented discrete-event
// simulation engine.
//
// The engine owns a virtual clock and a queue of events ordered by
// (time, sequence); every event is a callback. Simulated activities are
// chains of callbacks, or processes: ordinary Go functions running as
// coroutines that park on the engine whenever they wait for virtual
// time to pass or for a condition to become true. A process's wake is
// one more callback, so each blocking call is its callback form (After,
// Flag.WaitGEFunc, Semaphore.AcquireFunc, Resource.TransferAsync) with
// the wake as the callback, and a chain and a process that wait alike
// step alike. Exactly one callback or process runs at any moment, so
// simulations are fully deterministic and need no locking.
//
// Shared capacities such as memory bandwidth and interconnect links are
// modelled by Resource, a processor-sharing bandwidth server with optional
// per-flow caps and an efficiency curve (see resource.go).
package sim

import (
	"fmt"
	"math"
)

// Time is an absolute instant on the simulation clock, in nanoseconds
// since the start of the simulation.
type Time int64

// Duration is a span of simulated time in nanoseconds.
type Duration int64

// Common durations, mirroring the time package but for virtual time.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Forever is a sentinel Time later than any reachable simulation instant.
const Forever Time = math.MaxInt64

// Add returns the instant d after t, saturating at Forever.
func (t Time) Add(d Duration) Time {
	if t == Forever || Duration(Forever-t) <= d {
		return Forever
	}
	return t + Time(d)
}

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros reports t as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

func (t Time) String() string {
	if t == Forever {
		return "forever"
	}
	return Duration(t).String()
}

// Seconds reports d as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Micros reports d as floating-point microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

func (d Duration) String() string {
	switch {
	case d < 10*Microsecond:
		return fmt.Sprintf("%dns", int64(d))
	case d < 10*Millisecond:
		return fmt.Sprintf("%.2fus", d.Micros())
	case d < 10*Second:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}

// DurationOf converts floating-point seconds into a Duration, rounding to
// the nearest nanosecond and clamping negatives and NaN to zero.
func DurationOf(seconds float64) Duration {
	if !(seconds > 0) {
		return 0
	}
	ns := math.Round(seconds * float64(Second))
	if ns >= float64(math.MaxInt64) {
		return Duration(math.MaxInt64)
	}
	return Duration(ns)
}

// TransferTime returns the time needed to move bytes at rate bytesPerSec.
// A non-positive rate yields Duration(0) for zero bytes and a very large
// duration otherwise; callers should treat that as a configuration error.
func TransferTime(bytes, bytesPerSec float64) Duration {
	if bytes <= 0 {
		return 0
	}
	if bytesPerSec <= 0 {
		return Duration(math.MaxInt64)
	}
	return DurationOf(bytes / bytesPerSec)
}
