package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fusedcc/internal/astra"
	"fusedcc/internal/graph"
	"fusedcc/internal/sim"
)

// hostNow reads the host clock. Every host-time measurement goes
// through it; simulated quantities never do.
//
//detlint:allow wallclock -- host timing
func hostNow() time.Time { return time.Now() }

// hostSpan is one timed call into a layer, on the host clock.
type hostSpan struct {
	name       string
	start, end time.Time
}

// hostRec records host spans in memory.
type hostRec struct {
	spans []hostSpan
}

// do runs fn as a span named name.
func (h *hostRec) do(name string, fn func()) {
	start := hostNow()
	fn()
	h.spans = append(h.spans, hostSpan{name, start, hostNow()})
}

// total sums the durations of the spans named name.
func (h *hostRec) total(name string) time.Duration {
	var d time.Duration
	for _, s := range h.spans {
		if s.name == name {
			d += s.end.Sub(s.start)
		}
	}
	return d
}

// traceEvent is one Chrome trace-event record; Perfetto and
// chrome://tracing open a file of them. Times are microseconds.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// complete returns a complete ("X") event over [start, end] on the
// simulated clock.
func complete(name string, pid, tid int, start, end sim.Time, args map[string]any) traceEvent {
	return traceEvent{Name: name, Ph: "X", Ts: start.Micros(), Dur: end.Sub(start).Micros(), Pid: pid, Tid: tid, Args: args}
}

// processName labels a trace process.
func processName(pid int, name string) traceEvent {
	return traceEvent{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": name}}
}

// encodeTrace renders events as a Chrome trace file.
func encodeTrace(events []traceEvent) ([]byte, error) {
	return json.Marshal(traceFile{TraceEvents: events, DisplayTimeUnit: "ns"})
}

func writeTrace(path string, events []traceEvent) error {
	data, err := encodeTrace(events)
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// hostEvents renders host spans as trace events, in microseconds since
// origin.
func hostEvents(spans []hostSpan, origin time.Time) []traceEvent {
	events := []traceEvent{processName(1, "host")}
	for _, s := range spans {
		events = append(events, traceEvent{
			Name: s.name, Ph: "X", Pid: 1,
			Ts:  float64(s.start.Sub(origin).Nanoseconds()) / 1e3,
			Dur: float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
		})
	}
	return events
}

// Trace processes of a serving pass.
const (
	pidRequests = 1 + iota
	pidSteps
	pidNodes
)

// spans traces a serving pass on the simulated clock: each request
// (queued from arrival to admission, then in service until done), each
// batched step with the ids it carried, and each graph node of each
// step with its kind. A request names its step and a step its
// requests, so spans of one request share an identifier.
func (p *servingPass) spans() []traceEvent {
	events := []traceEvent{processName(pidRequests, "requests"), processName(pidSteps, "steps"), processName(pidNodes, "nodes")}
	stepOf := map[int]int{}
	for i, s := range p.steps() {
		for _, id := range s.ids {
			stepOf[id] = i
		}
		events = append(events, complete("step", pidSteps, s.slot, s.rep.Start, s.rep.End,
			map[string]any{"step": i, "requests": s.ids}))
		for _, n := range s.rep.Nodes {
			tid := 2 * s.slot
			if n.Kind == graph.KindCollective {
				tid++
			}
			events = append(events, complete(n.Name, pidNodes, tid, n.Start, n.End,
				map[string]any{"step": i, "kind": n.Kind.String(), "op": n.Op}))
		}
	}
	for _, r := range p.stats.Requests {
		args := map[string]any{"request": r.ID, "step": stepOf[r.ID]}
		events = append(events,
			complete("queued", pidRequests, r.ID, r.Arrival, r.Admit, args),
			complete("service", pidRequests, r.ID, r.Admit, r.Done, args))
	}
	return events
}

// spans traces the first fused and baseline iteration of an astra pass,
// each with its calibrated phase times (map keys sort on encoding).
func (p *astraPass) spans() []traceEvent {
	events := []traceEvent{processName(1, "iterations")}
	for tid, r := range []astra.Result{p.fused[0], p.baseline[0]} {
		phases := map[string]any{}
		for k, d := range r.Phases {
			phases[k] = d.Micros()
		}
		name := "fused"
		if tid == 1 {
			name = "baseline"
		}
		events = append(events, complete(name, 1, tid, 0, sim.Time(r.Total),
			map[string]any{"phases_us": phases, "shards": r.Shards}))
	}
	return events
}
