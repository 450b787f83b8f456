package serve

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fusedcc/internal/sim"
)

// traceRejects are the malformed inputs a hand-written trace file
// actually produces, each with a substring of its error.
var traceRejects = []struct {
	name string
	in   string
	want string
}{
	{"empty file", "", "no arrivals"},
	{"comments only", "# warmup\n\n# more\n", "no arrivals"},
	{"bad offset", "0\nabc\n", "line 2: bad offset"},
	{"negative offset", "-0.5\n", "line 1: offset"},
	{"inf offset", "0\n+Inf\n", "line 2: offset"},
	{"nan offset", "0\nNaN\n", "line 2: offset"},
	{"offset saturates the clock", "0\n1e300\n", "line 2: offset 1e300 out of range"},
	{"offset past the clock", "9.3e9 dlrm\n", "line 1: offset 9.3e9 out of range"},
	{"out of order", "0.5 dlrm\n0.1 dlrm\n", "line 2: offset"},
	{"out of order after comment", "0.5\n# gap\n\n0.1\n", "line 4: offset"},
	{"too many fields", "0.5 dlrm extra\n", "line 1: 3 fields"},
}

// traceAccepts exercises the forgiving side: comments, blank lines,
// repeated offsets (a burst), and a missing trailing newline.
const traceAccepts = "# burst of three at t=0\n0 dlrm\n0 dlrm\n0 decode\n\n0.001"

// TestParseTraceRejects checks that every rejection names the
// offending line.
func TestParseTraceRejects(t *testing.T) {
	for _, tc := range traceRejects {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseTrace(strings.NewReader(tc.in))
			if err == nil {
				t.Fatalf("ParseTrace(%q) accepted", tc.in)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("ParseTrace(%q) error %q, want substring %q", tc.in, err, tc.want)
			}
		})
	}
}

func TestParseTraceAccepts(t *testing.T) {
	tr, err := ParseTrace(strings.NewReader(traceAccepts))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.At) != 4 {
		t.Fatalf("parsed %d arrivals, want 4", len(tr.At))
	}
	if tr.At[0] != tr.At[2] {
		t.Errorf("burst offsets differ: %v vs %v", tr.At[0], tr.At[2])
	}
	if tr.Kinds[3] != "" {
		t.Errorf("kind[3] = %q, want empty", tr.Kinds[3])
	}
}

// FuzzParseTrace checks that ParseTrace never panics and that every
// trace it accepts is one Run can replay: at least one arrival, a kind
// per arrival, offsets non-decreasing and below sim.Forever.
func FuzzParseTrace(f *testing.F) {
	for _, tc := range traceRejects {
		f.Add(tc.in)
	}
	f.Add(traceAccepts)
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := ParseTrace(strings.NewReader(in))
		if err != nil {
			return
		}
		if len(tr.At) == 0 || len(tr.At) != len(tr.Kinds) {
			t.Fatalf("ParseTrace(%q): %d offsets, %d kinds", in, len(tr.At), len(tr.Kinds))
		}
		for i, at := range tr.At {
			if at < 0 || at >= sim.Forever {
				t.Errorf("ParseTrace(%q): offset %d = %v out of range", in, i, at)
			}
			if i > 0 && at < tr.At[i-1] {
				t.Errorf("ParseTrace(%q): offset %d = %v before %v", in, i, at, tr.At[i-1])
			}
		}
	})
}

func TestLoadTrace(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.trace")
	if err := os.WriteFile(good, []byte("0\n0.002 decode\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := LoadTrace(good)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.At) != 2 || tr.Kinds[1] != "decode" {
		t.Errorf("loaded %d arrivals, kinds %v", len(tr.At), tr.Kinds)
	}
	if _, err := LoadTrace(filepath.Join(dir, "missing.trace")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.trace")
	if err := os.WriteFile(bad, []byte("0\nnope\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTrace(bad); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("bad file error = %v, want line-numbered", err)
	}
}
