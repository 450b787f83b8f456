// Package trace records per-workgroup timelines from simulated kernels —
// the substitute for ROC-profiler in the paper's Fig 11 — and renders
// them as ASCII Gantt charts.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"fusedcc/internal/sim"
)

// Kind classifies a timeline span.
type Kind string

// Span kinds used by the fused operators.
const (
	Compute   Kind = "compute" // embedding pooling / GEMV / GEMM work
	PutIssue  Kind = "put"     // non-blocking remote communication issued
	StoreSpan Kind = "store"   // blocking zero-copy store stream
	LocalDone Kind = "local"   // locally consumed slice completed
	WaitSpan  Kind = "wait"    // polling sliceRdy flags
	Reduce    Kind = "reduce"  // local reduction of received tiles
)

// Event is one span (or instant, when Start == End) on a workgroup's
// timeline.
type Event struct {
	WG    int
	Kind  Kind
	Start sim.Time
	End   sim.Time
	Info  string
}

// Timeline accumulates events. The zero value is a disabled recorder:
// Add is a no-op until Enable is called, so operators can record
// unconditionally without paying for unused traces.
type Timeline struct {
	enabled bool
	events  []Event
}

// Enable turns recording on.
func (t *Timeline) Enable() { t.enabled = true }

// Enabled reports whether events are being recorded.
func (t *Timeline) Enabled() bool { return t != nil && t.enabled }

// Add records an event. Safe to call on a nil or disabled timeline.
func (t *Timeline) Add(wg int, kind Kind, start, end sim.Time, info string) {
	if !t.Enabled() {
		return
	}
	t.events = append(t.events, Event{WG: wg, Kind: kind, Start: start, End: end, Info: info})
}

// Events returns the recorded events in insertion order.
func (t *Timeline) Events() []Event { return t.events }

// ByKind returns the events of one kind.
func (t *Timeline) ByKind(k Kind) []Event {
	var out []Event
	for _, ev := range t.events {
		if ev.Kind == k {
			out = append(out, ev)
		}
	}
	return out
}

// WGs returns the distinct workgroup ids present, sorted.
func (t *Timeline) WGs() []int {
	seen := map[int]bool{}
	for _, ev := range t.events {
		seen[ev.WG] = true
	}
	out := make([]int, 0, len(seen))
	for wg := range seen {
		out = append(out, wg)
	}
	sort.Ints(out)
	return out
}

// Span returns the [min start, max end] across all events.
func (t *Timeline) Span() (sim.Time, sim.Time) {
	if len(t.events) == 0 {
		return 0, 0
	}
	lo, hi := t.events[0].Start, t.events[0].End
	for _, ev := range t.events {
		if ev.Start < lo {
			lo = ev.Start
		}
		if ev.End > hi {
			hi = ev.End
		}
	}
	return lo, hi
}

// glyphs maps span kinds to chart characters.
var glyphs = map[Kind]byte{
	Compute:   '=',
	PutIssue:  'P',
	StoreSpan: 's',
	LocalDone: 'L',
	WaitSpan:  '.',
	Reduce:    'r',
}

// Gantt renders an ASCII chart: one row per workgroup (at most maxWGs),
// width columns across the full time span. Instant events overwrite span
// glyphs so put issues stay visible, matching the presentation of the
// paper's Fig 11.
func (t *Timeline) Gantt(width, maxWGs int) string {
	wgs := t.WGs()
	if len(wgs) == 0 {
		return "(empty timeline)\n"
	}
	if maxWGs > 0 && len(wgs) > maxWGs {
		wgs = wgs[:maxWGs]
	}
	rowOf := map[int]int{}
	for i, wg := range wgs {
		rowOf[wg] = i
	}
	lo, hi := t.Span()
	if hi == lo {
		hi = lo + 1
	}
	col := func(ts sim.Time) int {
		c := int(float64(ts-lo) / float64(hi-lo) * float64(width-1))
		if c < 0 {
			c = 0
		}
		if c >= width {
			c = width - 1
		}
		return c
	}
	rows := make([][]byte, len(wgs))
	for i := range rows {
		rows[i] = []byte(strings.Repeat(" ", width))
	}
	// Spans first, then instants on top.
	for pass := 0; pass < 2; pass++ {
		for _, ev := range t.events {
			r, ok := rowOf[ev.WG]
			if !ok {
				continue
			}
			instant := ev.Start == ev.End
			if (pass == 0) == instant {
				continue
			}
			g, ok := glyphs[ev.Kind]
			if !ok {
				g = '?'
			}
			for c := col(ev.Start); c <= col(ev.End); c++ {
				rows[r][c] = g
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "timeline %v .. %v (%c compute, %c put, %c store, %c local, %c wait, %c reduce)\n",
		lo, hi, glyphs[Compute], glyphs[PutIssue], glyphs[StoreSpan], glyphs[LocalDone], glyphs[WaitSpan], glyphs[Reduce])
	for i, wg := range wgs {
		fmt.Fprintf(&b, "WG%-4d |%s|\n", wg, rows[i])
	}
	return b.String()
}
