package trace

import (
	"strings"
	"testing"

	"fusedcc/internal/sim"
)

func TestDisabledTimelineIsNoOp(t *testing.T) {
	var tl Timeline
	tl.Add(0, Compute, 0, 10, "x")
	if len(tl.Events()) != 0 {
		t.Fatal("disabled timeline recorded events")
	}
	var nilTL *Timeline
	if nilTL.Enabled() {
		t.Fatal("nil timeline must report disabled")
	}
	nilTL.Add(0, Compute, 0, 1, "") // must not panic
}

func TestAddAndQuery(t *testing.T) {
	var tl Timeline
	tl.Enable()
	tl.Add(3, Compute, 10, 20, "a")
	tl.Add(1, PutIssue, 15, 15, "b")
	tl.Add(3, WaitSpan, 20, 30, "c")
	if len(tl.Events()) != 3 {
		t.Fatalf("events = %d", len(tl.Events()))
	}
	if got := tl.ByKind(Compute); len(got) != 1 || got[0].Info != "a" {
		t.Errorf("ByKind(Compute) = %v", got)
	}
	wgs := tl.WGs()
	if len(wgs) != 2 || wgs[0] != 1 || wgs[1] != 3 {
		t.Errorf("WGs = %v", wgs)
	}
	lo, hi := tl.Span()
	if lo != 10 || hi != 30 {
		t.Errorf("span = [%v,%v]", lo, hi)
	}
}

func TestGanttRendering(t *testing.T) {
	var tl Timeline
	tl.Enable()
	tl.Add(0, Compute, 0, 100, "")
	tl.Add(0, PutIssue, 50, 50, "")
	tl.Add(1, WaitSpan, 100, 200, "")
	g := tl.Gantt(40, 8)
	if !strings.Contains(g, "WG0") || !strings.Contains(g, "WG1") {
		t.Fatalf("missing rows:\n%s", g)
	}
	if !strings.Contains(g, "=") || !strings.Contains(g, "P") || !strings.Contains(g, ".") {
		t.Fatalf("missing glyphs:\n%s", g)
	}
	// Instant events must overwrite span glyphs.
	row0 := strings.Split(g, "\n")[1]
	if !strings.Contains(row0, "P") {
		t.Errorf("put not visible over compute span: %s", row0)
	}
}

func TestGanttEmptyAndLimits(t *testing.T) {
	var tl Timeline
	tl.Enable()
	if !strings.Contains(tl.Gantt(10, 4), "empty") {
		t.Error("empty timeline should say so")
	}
	for wg := 0; wg < 10; wg++ {
		tl.Add(wg, Compute, 0, sim.Time(wg+1), "")
	}
	g := tl.Gantt(20, 3)
	if strings.Count(g, "WG") != 3 {
		t.Errorf("maxWGs not applied:\n%s", g)
	}
}
