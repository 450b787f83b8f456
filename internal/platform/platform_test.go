package platform

import (
	"strings"
	"testing"

	"fusedcc/internal/gpu"
	"fusedcc/internal/netsim"
	"fusedcc/internal/sim"
)

func mustNew(t *testing.T, cfg Config) *Platform {
	t.Helper()
	pl, err := New(sim.NewEngine(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestScaleUpShape(t *testing.T) {
	pl := mustNew(t, ScaleUp(4))
	if pl.NDevices() != 4 {
		t.Fatalf("devices = %d", pl.NDevices())
	}
	if pl.Network() != nil {
		t.Error("single-node platform must have no network")
	}
	if pl.FabricOf(0) == nil {
		t.Error("scale-up platform needs a fabric")
	}
	if !pl.SameNode(0, 3) {
		t.Error("all GPUs share the node")
	}
	if !strings.Contains(pl.String(), "fabric") {
		t.Errorf("String() = %q", pl.String())
	}
}

func TestScaleOutShape(t *testing.T) {
	pl := mustNew(t, ScaleOut(2))
	if pl.NDevices() != 2 {
		t.Fatalf("devices = %d", pl.NDevices())
	}
	if pl.Network() == nil {
		t.Error("multi-node platform needs a network")
	}
	if pl.FabricOf(0) != nil {
		t.Error("single-GPU nodes have no fabric")
	}
	if pl.SameNode(0, 1) {
		t.Error("GPUs on different nodes")
	}
	if pl.NodeOf(1) != 1 || pl.LocalIdx(1) != 0 {
		t.Error("index mapping broken")
	}
}

func TestClusterHybridShape(t *testing.T) {
	// The general 2x4 hybrid: every GPU must resolve to the right node,
	// fabric endpoint, and network.
	pl := mustNew(t, Cluster(2, 4))
	if pl.NDevices() != 8 || pl.Nodes() != 2 || pl.GPUsPerNode() != 4 {
		t.Fatalf("shape = %d devices, %d nodes x %d", pl.NDevices(), pl.Nodes(), pl.GPUsPerNode())
	}
	if pl.Network() == nil {
		t.Fatal("hybrid platform needs a network")
	}
	for g := 0; g < 8; g++ {
		if pl.NodeOf(g) != g/4 || pl.LocalIdx(g) != g%4 {
			t.Fatalf("GPU %d mapped to node %d local %d", g, pl.NodeOf(g), pl.LocalIdx(g))
		}
		if pl.FabricOf(g) == nil {
			t.Fatalf("GPU %d has no fabric", g)
		}
		if pl.Device(g).ID() != g {
			t.Fatalf("device ids must be global")
		}
	}
	if pl.FabricOf(0) == pl.FabricOf(4) {
		t.Error("nodes must not share a fabric")
	}
	if pl.FabricOf(1) != pl.FabricOf(3) {
		t.Error("same-node GPUs must share the fabric")
	}
	if !pl.SameNode(4, 7) || pl.SameNode(3, 4) {
		t.Error("SameNode wrong on the node boundary")
	}
	s := pl.String()
	if !strings.Contains(s, "fabric") || !strings.Contains(s, "NIC") {
		t.Errorf("String() = %q must mention both levels", s)
	}
}

func TestMixedShapeIndexing(t *testing.T) {
	cfg := ScaleOut(2)
	cfg.GPUsPerNode = 4
	cfg.Fabric = ScaleUp(4).Fabric
	pl := mustNew(t, cfg)
	if pl.NDevices() != 8 {
		t.Fatalf("devices = %d", pl.NDevices())
	}
	if pl.NodeOf(5) != 1 || pl.LocalIdx(5) != 1 {
		t.Error("mixed mapping broken")
	}
	if pl.Device(7).ID() != 7 {
		t.Error("device ids must be global")
	}
}

func TestTorusTopology(t *testing.T) {
	cfg := Cluster(8, 2)
	cfg.Topology = TopoTorus2D
	pl := mustNew(t, cfg)
	tor, ok := pl.Network().(*netsim.Torus2D)
	if !ok {
		t.Fatalf("network is %T, want *netsim.Torus2D", pl.Network())
	}
	w, h := tor.Dims()
	if w*h != 8 || w < 2 || h < 2 {
		t.Errorf("auto-factored torus %dx%d", w, h)
	}
	if !strings.Contains(pl.String(), "torus") {
		t.Errorf("String() = %q must mention the torus", pl.String())
	}
	// Explicit dimensions are honored.
	cfg.TorusW, cfg.TorusH = 4, 2
	pl = mustNew(t, cfg)
	if w, h := pl.Network().(*netsim.Torus2D).Dims(); w != 4 || h != 2 {
		t.Errorf("explicit torus = %dx%d, want 4x2", w, h)
	}
}

func TestValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"zero nodes", Config{Nodes: 0, GPUsPerNode: 1}},
		{"zero gpus", Config{Nodes: 1, GPUsPerNode: 0}},
		{"missing NIC", func() Config { c := ScaleOut(2); c.NICBandwidth = 0; return c }()},
		{"missing fabric", func() Config { c := ScaleUp(4); c.Fabric.LinkBandwidth = 0; return c }()},
		{"torus on one node", func() Config { c := ScaleUp(4); c.Topology = TopoTorus2D; return c }()},
		{"unfactorable torus", func() Config { c := ScaleOut(2); c.Topology = TopoTorus2D; return c }()},
		{"torus dims mismatch", func() Config {
			c := ScaleOut(8)
			c.Topology = TopoTorus2D
			c.TorusW, c.TorusH = 3, 2
			return c
		}()},
		{"override out of range", func() Config {
			c := ScaleUp(4)
			c.GPUOverrides = map[int]gpu.Config{99: c.GPU}
			return c
		}()},
		// 2^62 x 4 devices wrap to 0 in int.
		{"device count overflows int", Cluster(1<<62, 4)},
	}
	for _, tc := range cases {
		// Validate first: New on a shape Validate wrongly accepts could
		// allocate devices until the process runs out of memory.
		if err := tc.cfg.Validate(); err == nil {
			t.Errorf("%s: Validate must return an error", tc.name)
			continue
		}
		if _, err := New(sim.NewEngine(), tc.cfg); err == nil {
			t.Errorf("%s: New must return an error", tc.name)
		}
	}
}

func TestTableIDefaults(t *testing.T) {
	up := ScaleUp(4)
	if up.Fabric.LinkBandwidth != 80e9 {
		t.Errorf("scale-up fabric = %g, want 80 GB/s (Table I)", up.Fabric.LinkBandwidth)
	}
	out := ScaleOut(2)
	if out.NICBandwidth != 20e9 {
		t.Errorf("scale-out NIC = %g, want 20 GB/s (Table I)", out.NICBandwidth)
	}
	hy := Cluster(4, 4)
	if hy.Fabric.LinkBandwidth != 80e9 || hy.NICBandwidth != 20e9 {
		t.Error("hybrid cluster must keep the Table I link parameters on both levels")
	}
}
