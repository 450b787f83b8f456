// Package serve layers an open-loop serving model on the DES engine:
// seeded arrival generators (Poisson, trace replay) produce typed
// requests on the simulation clock, an admission loop continuously
// batches them into in-flight stack executions, and per-request
// telemetry aggregates into latency percentiles, goodput, and queue
// statistics. Every mode the repo can execute is otherwise priced and
// run as a one-shot graph on an idle machine; this package supplies the
// load the paper's target workloads (DLRM inference lookups, decode
// steps) actually run under, where queueing — not kernel time —
// dominates tail latency.
package serve

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"fusedcc/internal/sim"
	"fusedcc/internal/workload"
)

// Request is one unit of offered load: a DLRM inference lookup or a
// batched decode step, stamped at arrival, admission into a batch, and
// completion.
type Request struct {
	ID   int
	Kind string
	// Arrival is when the open-loop generator emitted the request;
	// Admit when a serving slot pulled it into a batch; Done when its
	// batch's stack execution finished.
	Arrival, Admit, Done sim.Time
	// Retries counts how many times the request was re-enqueued after a
	// failed backend step (fault injection only; always 0 otherwise).
	Retries int
}

// Wait is the time spent queued before admission.
func (r *Request) Wait() sim.Duration { return r.Admit.Sub(r.Arrival) }

// Service is the time from admission to completion (the batched stack
// execution the request rode in).
func (r *Request) Service() sim.Duration { return r.Done.Sub(r.Admit) }

// Latency is the end-to-end response time.
func (r *Request) Latency() sim.Duration { return r.Done.Sub(r.Arrival) }

// Arrivals generates the offered load: the inter-arrival gap before
// request i and its kind. ok=false ends the stream. Implementations
// must be deterministic in i — the generator consumes them in order on
// a single process.
type Arrivals interface {
	Next(i int) (gap sim.Duration, kind string, ok bool)
}

// poisson draws exponentially distributed inter-arrival gaps — the
// open-loop memoryless arrival process. Seeded through workload.Rand so
// runs are byte-identical for a given seed regardless of how many sweep
// workers run alongside.
type poisson struct {
	rng  workload.RNG
	mean float64 // seconds between arrivals
	kind string
}

// Poisson returns a deterministic seeded Poisson arrival process at the
// given rate (requests per second).
func Poisson(qps float64, seed int64, kind string) Arrivals {
	if qps <= 0 {
		panic(fmt.Sprintf("serve: Poisson rate must be positive, got %g", qps))
	}
	return &poisson{rng: workload.Rand(seed), mean: 1 / qps, kind: kind}
}

func (p *poisson) Next(i int) (sim.Duration, string, bool) {
	return sim.DurationOf(p.rng.ExpFloat64() * p.mean), p.kind, true
}

// Trace replays recorded arrival instants (offsets from the start of
// the run).
type Trace struct {
	At    []sim.Time
	Kinds []string // parallel to At; empty kinds allowed
}

func (t *Trace) Next(i int) (sim.Duration, string, bool) {
	if i >= len(t.At) {
		return 0, "", false
	}
	prev := sim.Time(0)
	if i > 0 {
		prev = t.At[i-1]
	}
	kind := ""
	if i < len(t.Kinds) {
		kind = t.Kinds[i]
	}
	return t.At[i].Sub(prev), kind, true
}

// ParseTrace reads an arrival trace: one request per line as
// "<offset-seconds> [kind]", '#' comments and blank lines skipped.
// Offsets must be non-negative, finite, below sim.Forever, and
// non-decreasing, and the trace must contain at least one arrival.
// Errors carry the offending line number.
func ParseTrace(r io.Reader) (*Trace, error) {
	tr := &Trace{}
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) > 2 {
			return nil, fmt.Errorf("serve: trace line %d: %d fields %q, want \"<offset-seconds> [kind]\"", line, len(fields), text)
		}
		secs, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("serve: trace line %d: bad offset %q: %w", line, fields[0], err)
		}
		if secs < 0 || math.IsInf(secs, 0) || math.IsNaN(secs) {
			return nil, fmt.Errorf("serve: trace line %d: offset %v out of range", line, fields[0])
		}
		at := sim.Time(sim.DurationOf(secs))
		if at == sim.Forever {
			// DurationOf saturates: the offset lies past the last
			// instant the simulation clock can reach.
			return nil, fmt.Errorf("serve: trace line %d: offset %v out of range", line, fields[0])
		}
		if n := len(tr.At); n > 0 && at < tr.At[n-1] {
			return nil, fmt.Errorf("serve: trace line %d: offset %v before previous %v", line, at, tr.At[n-1])
		}
		kind := ""
		if len(fields) > 1 {
			kind = fields[1]
		}
		tr.At = append(tr.At, at)
		tr.Kinds = append(tr.Kinds, kind)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("serve: reading trace at line %d: %w", line, err)
	}
	if len(tr.At) == 0 {
		return nil, fmt.Errorf("serve: trace has no arrivals (%d lines of comments/blanks)", line)
	}
	return tr, nil
}

// LoadTrace reads an arrival trace file (see ParseTrace).
func LoadTrace(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseTrace(f)
}

// Backend executes one batched stack step for the given requests,
// blocking the calling process for the step's simulated duration. Each
// serving slot owns one Backend instance: the core operators are not
// reentrant, so concurrent in-flight executions need separate stack
// instances (built on the same world, so they contend for the same
// streams and links).
type Backend interface {
	Step(p *sim.Proc, batch []*Request)
}

// BackendFunc adapts a function to the Backend interface.
type BackendFunc func(p *sim.Proc, batch []*Request)

// Step calls f.
func (f BackendFunc) Step(p *sim.Proc, batch []*Request) { f(p, batch) }

// Fallible is the optional Backend extension for backends whose steps
// can fail — a dropped rank, an injected fault. When a slot's backend
// implements it, Run calls StepErr instead of Step; on a non-nil error
// the batch's requests are not completed but retried (bounded by
// Config.MaxRetries) after Config.RetryBackoff, and Config.Rebuild may
// replace the slot's backend first. A failed step still consumes the
// simulated time StepErr blocked for — work lost at failure.
type Fallible interface {
	Backend
	StepErr(p *sim.Proc, batch []*Request) error
}

// Config bounds one serving run.
type Config struct {
	// MaxBatch caps the requests one batched step carries (0 or 1:
	// one request per step).
	MaxBatch int
	// Requests stops the generator after this many requests (0: no
	// count bound; Horizon must then be set).
	Requests int
	// Horizon stops the generator at this simulated time (0: no time
	// bound). Already-queued requests still complete — the run drains.
	Horizon sim.Duration
	// SLO is the end-to-end latency bound goodput counts against
	// (0: every completion is good).
	SLO sim.Duration
	// Deadline drops requests still queued this long after arrival at
	// admission time instead of serving them (0: never time out). Unlike
	// SLO — which only classifies completions — a deadline sheds load.
	Deadline sim.Duration
	// MaxRetries bounds how many times a request whose backend step
	// failed is re-enqueued before it is dropped (0: drop on first
	// failure). Only consulted for Fallible backends.
	MaxRetries int
	// RetryBackoff is the simulated delay before a failed request
	// re-enters the queue (0: immediate re-enqueue).
	RetryBackoff sim.Duration
	// Rebuild, when set, is consulted after a failed step: a non-nil
	// return replaces the failing slot's backend for subsequent steps —
	// the re-shard hook that rebuilds a stack on surviving ranks after
	// a dropped one.
	Rebuild func(slot int, err error) Backend
	// Probe, when set, observes every queue-depth transition — the
	// live-telemetry hook degradation monitors sample. It must not
	// mutate simulation state.
	Probe func(now sim.Time, depth int)
}

// Run drives one serving simulation to completion on e (which must be
// fresh: Run owns the event loop). One generator process emits requests
// per arr; each slot runs a worker process that repeatedly pulls up to
// MaxBatch queued requests — continuous batching: whatever is queued
// when a slot frees, not fixed-size batches — and executes them as one
// backend step. Multiple slots model in-flight executions overlapping
// on the shared device streams. Returns the completed-request log and
// aggregate statistics.
func Run(e *sim.Engine, arr Arrivals, slots []Backend, cfg Config) *Stats {
	if len(slots) == 0 {
		panic("serve: Run needs at least one backend slot")
	}
	if cfg.Requests <= 0 && cfg.Horizon <= 0 {
		panic("serve: Config needs a Requests or Horizon bound")
	}
	maxBatch := cfg.MaxBatch
	if maxBatch < 1 {
		maxBatch = 1
	}

	st := &Stats{}
	var (
		queue  []*Request
		closed bool
		ready  = sim.NewCond(e)
		// Time-weighted queue-depth integral: depth(t) integrated over
		// the run, updated at every queue transition.
		depthAt  sim.Time
		depthInt float64
		// Failed requests awaiting their backoff re-enqueue. Slots must
		// not exit while any are pending or they would never be served.
		retryPending int
	)
	account := func(now sim.Time) {
		depthInt += float64(len(queue)) * float64(now.Sub(depthAt))
		depthAt = now
	}
	probe := func(now sim.Time) {
		if cfg.Probe != nil {
			cfg.Probe(now, len(queue))
		}
	}

	e.Go("serve/arrivals", func(p *sim.Proc) {
		for i := 0; cfg.Requests <= 0 || i < cfg.Requests; i++ {
			gap, kind, ok := arr.Next(i)
			if !ok {
				break
			}
			p.Sleep(gap)
			if cfg.Horizon > 0 && p.Now() > sim.Time(cfg.Horizon) {
				break
			}
			account(p.Now())
			queue = append(queue, &Request{ID: i, Kind: kind, Arrival: p.Now()})
			st.Generated++
			if len(queue) > st.MaxDepth {
				st.MaxDepth = len(queue)
			}
			probe(p.Now())
			ready.Broadcast()
		}
		closed = true
		ready.Broadcast()
	})

	for si, b := range slots {
		si, b := si, b
		e.Go(fmt.Sprintf("serve/slot%d", si), func(p *sim.Proc) {
			for {
				ready.Wait(p, func() bool {
					return len(queue) > 0 || (closed && retryPending == 0)
				})
				if len(queue) == 0 {
					return
				}
				n := len(queue)
				if n > maxBatch {
					n = maxBatch
				}
				account(p.Now())
				batch := queue[:n:n]
				queue = queue[n:]
				for _, r := range batch {
					r.Admit = p.Now()
				}
				probe(p.Now())
				if cfg.Deadline > 0 {
					kept := batch[:0]
					for _, r := range batch {
						if r.Wait() > cfg.Deadline {
							st.Drops++
							st.Dropped = append(st.Dropped, r)
							continue
						}
						kept = append(kept, r)
					}
					batch = kept
					if len(batch) == 0 {
						continue
					}
				}
				fb, fallible := b.(Fallible)
				if fallible {
					if err := fb.StepErr(p, batch); err != nil {
						if cfg.Rebuild != nil {
							if nb := cfg.Rebuild(si, err); nb != nil {
								b = nb
							}
						}
						for _, r := range batch {
							r := r
							if r.Retries >= cfg.MaxRetries {
								st.Drops++
								st.Dropped = append(st.Dropped, r)
								continue
							}
							r.Retries++
							st.Retries++
							retryPending++
							e.After(cfg.RetryBackoff, func() {
								account(e.Now())
								queue = append(queue, r)
								retryPending--
								if len(queue) > st.MaxDepth {
									st.MaxDepth = len(queue)
								}
								probe(e.Now())
								ready.Broadcast()
							})
						}
						st.Batches++
						continue
					}
				} else {
					b.Step(p, batch)
				}
				for _, r := range batch {
					r.Done = p.Now()
				}
				st.Requests = append(st.Requests, batch...)
				st.Batches++
			}
		})
	}

	e.Run()
	end := e.Now()
	account(end)
	if end > 0 {
		st.MeanDepth = depthInt / float64(end)
	}
	st.finish(end, cfg.SLO)
	return st
}
