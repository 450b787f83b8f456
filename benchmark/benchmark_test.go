package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"fusedcc/internal/core"
	"fusedcc/internal/dlrm"
	"fusedcc/internal/graph"
	"fusedcc/internal/shmem"
	"fusedcc/internal/sim"
)

func durations(n int) []sim.Duration {
	xs := make([]sim.Duration, n)
	for i := range xs {
		xs[i] = sim.Duration(n - i) // unsorted on purpose
	}
	return xs
}

func TestPercentileTailRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want sim.Duration // 0: must fail the tail rule
	}{
		{100, 90, 90},
		{99, 90, 0}, // rank 90 leaves 9 beyond
		{20, 50, 10},
		{19, 50, 0},
		{1000, 99, 990},
		{999, 99, 0},
		{0, 50, 0}, // served nothing: no percentile, not a perfect one
	} {
		got, err := percentile(durations(c.n), c.p)
		if c.want == 0 {
			if err == nil {
				t.Errorf("p%g of %d: got %v, want a tail-rule error", c.p, c.n, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("p%g of %d = %v, %v; want %v", c.p, c.n, got, err, c.want)
		}
	}
}

func TestStepSplit(t *testing.T) {
	rep := &graph.Report{Start: 0, End: 100, Nodes: []graph.NodeReport{
		{Kind: graph.KindCompute, Start: 0, End: 40},
		{Kind: graph.KindFused, Start: 30, End: 50}, // fused counts as compute
		{Kind: graph.KindCollective, Start: 45, End: 70},
		{Kind: graph.KindCollective, Start: 60, End: 120}, // clipped at End
	}}
	got := splitStep(rep)
	want := stepSplit{computeOnly: 45, commExposed: 50, overlap: 5, idle: 0}
	if got != want {
		t.Fatalf("split = %+v, want %+v", got, want)
	}
	rep.Nodes = rep.Nodes[:3]
	got = splitStep(rep)
	want = stepSplit{computeOnly: 45, commExposed: 20, overlap: 5, idle: 30}
	if got != want {
		t.Fatalf("split = %+v, want %+v", got, want)
	}
	sum := 0.0
	for _, f := range got.fractions() {
		sum += f
	}
	if sum != 1 {
		t.Errorf("fractions sum to %v", sum)
	}
}

func TestArrivalsSeeded(t *testing.T) {
	a, b, c := arrivals(7, 1000, 50), arrivals(7, 1000, 50), arrivals(8, 1000, 50)
	if !reflect.DeepEqual(a.At, b.At) {
		t.Error("same seed gave different arrivals")
	}
	if reflect.DeepEqual(a.At, c.At) {
		t.Error("different seeds gave the same arrivals")
	}
	for i := 1; i < len(a.At); i++ {
		if a.At[i] < a.At[i-1] {
			t.Fatalf("arrival %d at %v before %v", i, a.At[i], a.At[i-1])
		}
	}
}

// tinyDLRM is a serving workload small enough for a unit test: a DLRM
// on four 1-GPU nodes serving eight requests.
var tinyDLRM = &servingSpec{
	id: "tiny-dlrm", nodes: 4, gpus: 1,
	build: func(w *shmem.World, pes []int) (stack, *graph.Graph, error) {
		m, err := dlrm.New(w, pes, dlrm.Config{
			TablesPerGPU: 2, TableRows: 1 << 12, EmbeddingDim: 64,
			GlobalBatch: 128, AvgPooling: 8,
			BottomMLP: []int{64, 64}, TopMLP: []int{64, 1},
			SliceRows: 32, RowsPerWG: 32, Seed: 1,
		}, core.DefaultConfig())
		if err != nil {
			return nil, nil, err
		}
		return m, m.ForwardGraph(), nil
	},
	rate: 20000, requests: 8, maxBatch: 2,
	slo: sim.Millisecond,
}

func tinyTrace(t *testing.T) []byte {
	t.Helper()
	p, err := tinyDLRM.setup(3, &hostRec{})
	if err != nil {
		t.Fatal(err)
	}
	p.run()
	if out := p.outcome(true); len(out.failures) > 0 {
		t.Fatalf("output checks failed: %v", out.failures)
	}
	data, err := encodeTrace(p.spans())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestTraceDeterministicAndRoundTrips(t *testing.T) {
	a, b := tinyTrace(t), tinyTrace(t)
	if !bytes.Equal(a, b) {
		t.Fatal("two runs of the same workload and seed wrote different traces")
	}
	var f traceFile
	if err := json.Unmarshal(a, &f); err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, again) {
		t.Error("trace does not round-trip through encoding/json")
	}
	if !strings.Contains(string(a), `"name":"service"`) || !strings.Contains(string(a), `"name":"step"`) {
		t.Error("trace lacks request or step spans")
	}
}

func TestBenchmarkFileMatchesTable(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	type entry struct{ name, unit, better string }
	var want, got []entry
	for _, m := range metricTable {
		better := "higher"
		if m.lower {
			better = "lower"
		}
		want = append(want, entry{m.name, m.unit, better})
	}
	for _, m := range bf.EndToEnd {
		got = append(got, entry{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		got = append(got, entry{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json metrics\n%v\ndiffer from the metric table\n%v", got, want)
	}
}

func TestCompareFailsClosed(t *testing.T) {
	bf := &benchmarkFile{}
	bf.EndToEnd = append(bf.EndToEnd, struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.1})
	res := func(wall, lat float64) *result {
		return &result{Seed: 1, Correct: true, Metrics: map[string]float64{"wall_s": wall, "lat_p50_us": lat}}
	}
	for _, c := range []struct {
		name string
		a, b map[string]*result
		ok   bool
	}{
		{"agree", map[string]*result{"w": res(1, 5)}, map[string]*result{"w": res(1.05, 5)}, true},
		{"faster", map[string]*result{"w": res(1, 5)}, map[string]*result{"w": res(0.5, 5)}, true},
		{"slower", map[string]*result{"w": res(1, 5)}, map[string]*result{"w": res(1.2, 5)}, false},
		{"sim differs", map[string]*result{"w": res(1, 5)}, map[string]*result{"w": res(1, 5.001)}, false},
		{"workload missing", map[string]*result{"w": res(1, 5)}, map[string]*result{}, false},
		{"metric missing", map[string]*result{"w": res(1, 5)}, map[string]*result{"w": {Seed: 1, Correct: true, Metrics: map[string]float64{"wall_s": 1}}}, false},
	} {
		if got := compareResults(bf, c.a, c.b, io.Discard); got != c.ok {
			t.Errorf("%s: compare = %t, want %t", c.name, got, c.ok)
		}
	}
}

func TestScaledMedians(t *testing.T) {
	res := &result{
		Walls:     []float64{2, 3},
		Setups:    []float64{0.1, 0.1, 0.3},
		SetupPass: []int{0, 0, 1},
		// The host runs at reference speed around pass 0 and slows to two
		// thirds of it around pass 1.
		Yardsticks: []float64{refYardstick, refYardstick, 2 * refYardstick},
	}
	setup, wall := scaledMedians(res)
	if setup != 0.1 || wall != 2 {
		t.Errorf("scaledMedians = %v, %v; want 0.1, 2", setup, wall)
	}
}

func TestParseTraces(t *testing.T) {
	report := `File: benchmark
Type: cpu
Duration: 2.51s, Total samples = 2.66s (106.03%)
-----------+-------------------------------------------------------
      10ms   runtime.heapSetTypeNoHeader (inline)
             sort.SliceStable
             fusedcc/internal/sim.(*Resource).waterfill
-----------+-------------------------------------------------------
     1.20s   runtime.chanparkcommit
             runtime.mcall
-----------+-------------------------------------------------------
`
	got, err := parseTraces(report)
	if err != nil {
		t.Fatal(err)
	}
	want := []profileSample{
		{funcs: []string{"runtime.heapSetTypeNoHeader", "sort.SliceStable", "fusedcc/internal/sim.(*Resource).waterfill"}, weight: 10 * time.Millisecond},
		{funcs: []string{"runtime.chanparkcommit", "runtime.mcall"}, weight: 1200 * time.Millisecond},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseTraces = %+v, want %+v", got, want)
	}
	for _, bad := range []string{"", "File: x\n-----------+---\n  lots   main.f\n"} {
		if _, err := parseTraces(bad); err == nil {
			t.Errorf("parseTraces(%q) succeeded", bad)
		}
	}
}

func TestSelfShares(t *testing.T) {
	shares := selfShares([]profileSample{
		{funcs: []string{"sort.Slice", "fusedcc/internal/sim.(*Resource).waterfill", "fusedcc/internal/gpu.(*WG).Read"}, weight: 2},
		{funcs: []string{"runtime.chansend", "fusedcc/internal/sim.(*Proc).Sleep"}, weight: 1},
		{funcs: []string{"runtime.gcBgMarkWorker"}, weight: 1},
	})
	want := map[string]float64{"sim.resource": 0.5, "sim.engine": 0.25, "runtime": 0.25}
	if !reflect.DeepEqual(shares, want) {
		t.Errorf("shares = %v, want %v", shares, want)
	}
}
