package chaos

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"fusedcc/internal/sim"
)

func ms(n int) sim.Duration { return sim.Duration(n) * sim.Millisecond }

// parseCases are well-formed specs and the plans they parse to.
var parseCases = []struct {
	spec string
	want Plan
}{
	{"", Plan{}},
	{"none", Plan{}},
	{"slowlink@3,x8,start=1ms,for=5ms", Plan{Faults: []Fault{
		{Kind: SlowLink, Target: 3, Factor: 8, Start: ms(1), For: ms(5)},
	}}},
	{"slowlink@0,x4,latency", Plan{Faults: []Fault{
		{Kind: SlowLink, Target: 0, Factor: 4, Latency: true},
	}}},
	{"straggler@?", Plan{Faults: []Fault{
		{Kind: Straggler, Target: -1, Factor: 4}, // default factor
	}}},
	{"droprank@2,start=4ms", Plan{Faults: []Fault{
		{Kind: DropRank, Target: 2, Start: ms(4)},
	}}},
	{" slowlink@1,x2.5 ; droprank@0 ", Plan{Faults: []Fault{
		{Kind: SlowLink, Target: 1, Factor: 2.5},
		{Kind: DropRank, Target: 0},
	}}},
}

// parseRejects are malformed specs and a substring of each one's error.
var parseRejects = []struct {
	spec, want string
}{
	{"slowlink", "want kind@target"},
	{"gremlin@0", "unknown kind"},
	{"slowlink@-1", "bad target"},
	{"slowlink@x", "bad target"},
	{"slowlink@0,x1", "bad factor"},   // factor must exceed 1
	{"slowlink@0,x0.5", "bad factor"}, // speedups are not faults
	{"slowlink@0,xInf,start=1ms", "bad factor"},
	{"slowlink@0,x+Inf", "bad factor"},
	{"straggler@1,xNaN", "bad factor"},
	{"droprank@0,x4", "no factor"},
	{"droprank@0,for=1ms", "no window"},
	{"straggler@0,latency", "only applies to slowlink"},
	{"slowlink@0,start=-1ms", "bad duration"},
	{"slowlink@0,start=fast", "bad duration"},
	{"slowlink@0,loud", "unknown option"},
}

func TestParse(t *testing.T) {
	for _, tc := range parseCases {
		got, err := Parse(tc.spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.spec, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Parse(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}
}

func TestParseRejects(t *testing.T) {
	for _, tc := range parseRejects {
		_, err := Parse(tc.spec)
		if err == nil {
			t.Errorf("Parse(%q) accepted", tc.spec)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q) error %q, want substring %q", tc.spec, err, tc.want)
		}
	}
}

// FuzzParse checks that Parse never panics and that every plan it
// accepts is one Arm can schedule: finite factors above 1 (none on a
// droprank), non-negative windows, and latency only on a slowlink.
func FuzzParse(f *testing.F) {
	for _, tc := range parseCases {
		f.Add(tc.spec)
	}
	for _, tc := range parseRejects {
		f.Add(tc.spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil {
			return
		}
		for _, flt := range p.Faults {
			if math.IsNaN(flt.Factor) || math.IsInf(flt.Factor, 0) {
				t.Errorf("Parse(%q): fault %v has a non-finite factor", spec, flt)
			}
			if flt.Kind == DropRank {
				if flt.Factor != 0 {
					t.Errorf("Parse(%q): droprank %v has a factor", spec, flt)
				}
			} else if !(flt.Factor > 1) {
				t.Errorf("Parse(%q): fault %v has factor %g, want > 1", spec, flt, flt.Factor)
			}
			if flt.Start < 0 || flt.For < 0 {
				t.Errorf("Parse(%q): fault %v has a negative window", spec, flt)
			}
			if flt.Latency && flt.Kind != SlowLink {
				t.Errorf("Parse(%q): latency on %v", spec, flt)
			}
		}
	})
}

// TestPlanStringRoundTrips checks the rendered plan re-parses to
// itself — the form BENCH notes and -faults share.
func TestPlanStringRoundTrips(t *testing.T) {
	for _, spec := range []string{
		"none",
		"slowlink@3,x8,start=1ms,for=5ms",
		"slowlink@0,x4,latency;droprank@2,start=4ms",
	} {
		p, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		again, err := Parse(p.String())
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", p, err)
		}
		if !reflect.DeepEqual(p, again) {
			t.Errorf("%q round-tripped to %+v via %q", spec, again, p)
		}
	}
}

// TestDrawDeterministic pins the seeded target draw: same (plan, seed)
// resolves identically, different seeds may differ, fixed targets are
// untouched, and the input plan is not mutated.
func TestDrawDeterministic(t *testing.T) {
	p, err := Parse("slowlink@?;straggler@?;droprank@1")
	if err != nil {
		t.Fatal(err)
	}
	a := p.Draw(7, 8, 16)
	b := p.Draw(7, 8, 16)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed drew %v then %v", a, b)
	}
	if p.Faults[0].Target != -1 || p.Faults[1].Target != -1 {
		t.Errorf("Draw mutated its receiver: %v", p)
	}
	if a.Faults[2].Target != 1 {
		t.Errorf("fixed target redrawn: %v", a)
	}
	if tgt := a.Faults[0].Target; tgt < 0 || tgt >= 8 {
		t.Errorf("slowlink target %d outside [0,8)", tgt)
	}
	if tgt := a.Faults[1].Target; tgt < 0 || tgt >= 16 {
		t.Errorf("straggler target %d outside [0,16)", tgt)
	}
}

func TestHealth(t *testing.T) {
	h := NewHealth()
	if _, _, dead := h.AnyDead([]int{0, 1, 2}); dead {
		t.Error("fresh record reports a dead rank")
	}
	h.MarkDead(2, sim.Time(100))
	h.MarkDead(2, sim.Time(999)) // idempotent: first timestamp wins
	h.MarkDead(0, sim.Time(200))
	if at, ok := h.Dead(2); !ok || at != sim.Time(100) {
		t.Errorf("Dead(2) = %v, %v", at, ok)
	}
	rank, since, dead := h.AnyDead([]int{1, 0, 2})
	if !dead || rank != 0 || since != sim.Time(200) {
		t.Errorf("AnyDead scan order broken: rank %d since %v dead %v", rank, since, dead)
	}
	if got := h.Survivors([]int{0, 1, 2, 3}); !reflect.DeepEqual(got, []int{1, 3}) {
		t.Errorf("Survivors = %v", got)
	}
	if got := h.DeadRanks(); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Errorf("DeadRanks = %v", got)
	}
	err := &RankDeadError{Rank: 2, Since: sim.Time(100)}
	if !strings.Contains(err.Error(), "rank 2") {
		t.Errorf("error message %q", err)
	}
}

func TestArmRejects(t *testing.T) {
	// Undrawn random targets must be caught before scheduling; a nil
	// platform is never touched on that path.
	if _, err := Arm(nil, Plan{Faults: []Fault{{Kind: Straggler, Target: -1, Factor: 4}}}); err == nil ||
		!strings.Contains(err.Error(), "not drawn") {
		t.Errorf("undrawn target error = %v", err)
	}
	// Non-finite factors are rejected before the platform is touched:
	// an infinite slowdown would zero a rate scale, and NaN would give
	// every flow a NaN rate.
	for _, f := range []Fault{
		{Kind: SlowLink, Target: 0, Factor: math.Inf(1)},
		{Kind: SlowLink, Target: 0, Factor: math.NaN()},
		{Kind: Straggler, Target: 1, Factor: math.Inf(1)},
		{Kind: Straggler, Target: 1, Factor: math.NaN()},
	} {
		if _, err := Arm(nil, Plan{Faults: []Fault{f}}); err == nil || !strings.Contains(err.Error(), "finite") {
			t.Errorf("Arm(%v) error = %v, want a finite-factor error", f, err)
		}
	}
}
