// Package platform assembles simulated hardware into cluster shapes: the
// paper's two evaluation shapes (Table I) — a scale-up node with several
// fully-connected GPUs and a scale-out cluster of single-GPU nodes — and
// the general hybrid case of Nodes x GPUsPerNode, where every node hosts
// a fabric-connected GPU group and nodes are joined by a NIC network
// (point-to-point mesh or 2D torus). It owns device construction and the
// mapping between global GPU ids, nodes, and fabric endpoints.
package platform

import (
	"fmt"
	"math"

	"fusedcc/internal/fabric"
	"fusedcc/internal/gpu"
	"fusedcc/internal/netsim"
	"fusedcc/internal/sim"
)

// Topology selects the inter-node network shape (used when Nodes > 1).
type Topology int

const (
	// TopoPointToPoint is a full mesh of NIC-to-NIC connections, the
	// Table I scale-out setup.
	TopoPointToPoint Topology = iota
	// TopoTorus2D arranges the nodes in a 2D torus with dimension-ordered
	// routing, the Table II scale-out simulation network.
	TopoTorus2D
)

func (t Topology) String() string {
	if t == TopoTorus2D {
		return "2D torus"
	}
	return "point-to-point"
}

// Config describes a cluster.
type Config struct {
	// Nodes is the node count (>= 1).
	Nodes int
	// GPUsPerNode is the per-node GPU count (>= 1).
	GPUsPerNode int
	// GPU configures every device.
	GPU gpu.Config
	// GPUOverrides replaces the configuration of specific global GPU
	// ids — straggler injection and heterogeneity studies.
	GPUOverrides map[int]gpu.Config
	// Fabric configures the intra-node interconnect (used when
	// GPUsPerNode > 1).
	Fabric fabric.Config
	// NICBandwidth is the per-node injection bandwidth in bytes/sec
	// (per directed link for TopoTorus2D; used when Nodes > 1).
	NICBandwidth float64
	// NICLatency is the one-way network latency (per traversed hop for
	// TopoTorus2D).
	NICLatency sim.Duration
	// Topology selects the inter-node network shape.
	Topology Topology
	// TorusW and TorusH are the torus dimensions for TopoTorus2D; leave
	// both zero to let Validate pick the most-square factorization of
	// Nodes.
	TorusW, TorusH int
}

// Cluster returns the general hybrid shape: nodes of fabric-connected
// MI210-class GPU groups joined by a point-to-point NIC mesh, with the
// Table I link parameters on both levels (80 GB/s fabric, 20 GB/s NIC).
func Cluster(nodes, gpusPerNode int) Config {
	cfg := Config{
		Nodes:       nodes,
		GPUsPerNode: gpusPerNode,
		GPU:         gpu.MI210(),
	}
	if gpusPerNode > 1 {
		cfg.Fabric = fabric.DefaultConfig()
	}
	if nodes > 1 {
		cfg.NICBandwidth = 20e9
		cfg.NICLatency = 2 * sim.Microsecond
	}
	return cfg
}

// ScaleUp returns the Table I scale-up shape: one node, four MI210-class
// GPUs fully connected at 80 GB/s.
func ScaleUp(gpus int) Config { return Cluster(1, gpus) }

// ScaleOut returns the Table I scale-out shape: nodes with one GPU each
// connected over a 20 GB/s InfiniBand-class network.
func ScaleOut(nodes int) Config { return Cluster(nodes, 1) }

// Validate checks that the configuration describes a constructible
// cluster.
func (cfg Config) Validate() error {
	if cfg.Nodes < 1 || cfg.GPUsPerNode < 1 {
		return fmt.Errorf("platform: need at least one node and one GPU per node (got %dx%d)", cfg.Nodes, cfg.GPUsPerNode)
	}
	if cfg.Nodes > math.MaxInt/cfg.GPUsPerNode {
		return fmt.Errorf("platform: %dx%d devices overflow int", cfg.Nodes, cfg.GPUsPerNode)
	}
	if cfg.GPUsPerNode > 1 && cfg.Fabric.LinkBandwidth <= 0 {
		return fmt.Errorf("platform: multi-GPU nodes need Fabric.LinkBandwidth > 0")
	}
	if cfg.Nodes > 1 && cfg.NICBandwidth <= 0 {
		return fmt.Errorf("platform: multi-node config needs NICBandwidth > 0")
	}
	if cfg.Topology == TopoTorus2D {
		if cfg.Nodes == 1 {
			return fmt.Errorf("platform: torus topology needs Nodes > 1")
		}
		if _, _, err := cfg.torusDims(); err != nil {
			return err
		}
	}
	for id := range cfg.GPUOverrides {
		if id < 0 || id >= cfg.Nodes*cfg.GPUsPerNode {
			return fmt.Errorf("platform: GPU override id %d out of range [0,%d)", id, cfg.Nodes*cfg.GPUsPerNode)
		}
	}
	return nil
}

// torusDims resolves the torus dimensions: explicit TorusW/TorusH, or
// the most-square factorization of Nodes with both sides >= 2.
func (cfg Config) torusDims() (w, h int, err error) {
	w, h = cfg.TorusW, cfg.TorusH
	if w == 0 && h == 0 {
		for d := int(math.Sqrt(float64(cfg.Nodes))); d >= 2; d-- {
			if cfg.Nodes%d == 0 && cfg.Nodes/d >= 2 {
				w, h = d, cfg.Nodes/d
				break
			}
		}
		if w == 0 {
			return 0, 0, fmt.Errorf("platform: %d nodes have no WxH torus factorization with W,H >= 2; set TorusW/TorusH or use the point-to-point topology", cfg.Nodes)
		}
	}
	if w*h != cfg.Nodes {
		return 0, 0, fmt.Errorf("platform: torus %dx%d does not cover %d nodes", w, h, cfg.Nodes)
	}
	if w < 2 || h < 2 {
		return 0, 0, fmt.Errorf("platform: torus dimensions %dx%d must both be >= 2", w, h)
	}
	return w, h, nil
}

// Platform is an instantiated cluster bound to one simulation engine.
type Platform struct {
	// E is the engine hosting every device, fabric and network link.
	E       *sim.Engine
	cfg     Config
	devices []*gpu.Device
	fabrics []*fabric.Fabric // per node; nil when GPUsPerNode == 1
	net     netsim.Network   // nil when Nodes == 1
}

// New builds all devices, fabrics and the network on e. A
// configuration that fails Validate is reported as an error, not a
// panic.
func New(e *sim.Engine, cfg Config) (*Platform, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pl := &Platform{E: e, cfg: cfg}
	for n := 0; n < cfg.Nodes; n++ {
		var fab *fabric.Fabric
		if cfg.GPUsPerNode > 1 {
			fab = fabric.New(e, cfg.GPUsPerNode, cfg.Fabric)
		}
		pl.fabrics = append(pl.fabrics, fab)
		for l := 0; l < cfg.GPUsPerNode; l++ {
			id := n*cfg.GPUsPerNode + l
			gcfg := cfg.GPU
			if o, ok := cfg.GPUOverrides[id]; ok {
				gcfg = o
			}
			pl.devices = append(pl.devices, gpu.NewDevice(e, id, gcfg))
		}
	}
	if cfg.Nodes > 1 {
		switch cfg.Topology {
		case TopoTorus2D:
			w, h, _ := cfg.torusDims()
			pl.net = netsim.NewTorus2D(e, w, h, cfg.NICBandwidth, cfg.NICLatency)
		default:
			pl.net = netsim.NewPointToPoint(e, cfg.Nodes, cfg.NICBandwidth, cfg.NICLatency)
		}
	}
	return pl, nil
}

// Config returns the construction parameters.
func (pl *Platform) Config() Config { return pl.cfg }

// NDevices returns the global GPU count.
func (pl *Platform) NDevices() int { return len(pl.devices) }

// Device returns the device with global id g.
func (pl *Platform) Device(g int) *gpu.Device { return pl.devices[g] }

// Devices returns all devices in global-id order.
func (pl *Platform) Devices() []*gpu.Device { return pl.devices }

// Nodes returns the node count.
func (pl *Platform) Nodes() int { return pl.cfg.Nodes }

// GPUsPerNode returns the per-node GPU count.
func (pl *Platform) GPUsPerNode() int { return pl.cfg.GPUsPerNode }

// NodeOf maps a global GPU id to its node.
func (pl *Platform) NodeOf(g int) int { return g / pl.cfg.GPUsPerNode }

// LocalIdx maps a global GPU id to its index within its node (its fabric
// endpoint).
func (pl *Platform) LocalIdx(g int) int { return g % pl.cfg.GPUsPerNode }

// SameNode reports whether two GPUs share a node.
func (pl *Platform) SameNode(a, b int) bool { return pl.NodeOf(a) == pl.NodeOf(b) }

// FabricOf returns the intra-node fabric for the node hosting GPU g, or
// nil for single-GPU nodes.
func (pl *Platform) FabricOf(g int) *fabric.Fabric { return pl.fabrics[pl.NodeOf(g)] }

// Network returns the scale-out network, or nil for single-node systems.
func (pl *Platform) Network() netsim.Network { return pl.net }

// String summarizes the shape, e.g. "2 node(s) x 4 GPU(s), fabric
// 80 GB/s, NIC 20 GB/s".
func (pl *Platform) String() string {
	s := fmt.Sprintf("%d node(s) x %d GPU(s)", pl.cfg.Nodes, pl.cfg.GPUsPerNode)
	if pl.cfg.GPUsPerNode > 1 {
		s += fmt.Sprintf(", fabric %.0f GB/s", pl.cfg.Fabric.LinkBandwidth/1e9)
	}
	if pl.cfg.Nodes > 1 {
		s += fmt.Sprintf(", NIC %.0f GB/s", pl.cfg.NICBandwidth/1e9)
		if pl.cfg.Topology == TopoTorus2D {
			w, h, _ := pl.cfg.torusDims()
			s += fmt.Sprintf(" (2D torus %dx%d)", w, h)
		}
	}
	return s
}
