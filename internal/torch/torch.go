// Package torch is the framework-integration layer of the reproduction
// (§III-D "PyTorch Integration"): a small tensor type, the symmetric-
// heap allocation API the paper adds (the torch.tensor.to() analogue
// that lands data in NIC-registered device memory), and an operator
// registry through which the fused operators are exposed under stable
// names — the by-name hook for framework extensions. The graph-
// transformation pass itself lives in internal/graph, whose fused nodes
// carry these same operator names.
package torch

import (
	"fmt"
	"sort"

	"fusedcc/internal/core"
	"fusedcc/internal/gpu"
	"fusedcc/internal/kernels"
	"fusedcc/internal/shmem"
	"fusedcc/internal/sim"
)

// Tensor is a dense float32 tensor on one device.
type Tensor struct {
	shape []int
	buf   *gpu.Buffer
}

// numel validates a shape and returns its element count. Invalid
// configuration is an error, not a panic.
func numel(shape []int) (int, error) {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			return 0, fmt.Errorf("torch: bad dim %d in shape %v", d, shape)
		}
		n *= d
	}
	return n, nil
}

// NewTensor allocates a tensor of the given shape on dev.
func NewTensor(dev *gpu.Device, shape ...int) (*Tensor, error) {
	n, err := numel(shape)
	if err != nil {
		return nil, err
	}
	return &Tensor{shape: append([]int(nil), shape...), buf: dev.Alloc(n)}, nil
}

// Shape returns the dimensions.
func (t *Tensor) Shape() []int { return append([]int(nil), t.shape...) }

// Numel returns the element count.
func (t *Tensor) Numel() int { return t.buf.Len() }

// Buffer exposes the backing device buffer.
func (t *Tensor) Buffer() *gpu.Buffer { return t.buf }

// Device returns the owning device.
func (t *Tensor) Device() *gpu.Device { return t.buf.Device() }

// CopyFromHost fills the tensor from host data (functional mode only;
// a timing-mode copy is a no-op). A length mismatch is an error.
func (t *Tensor) CopyFromHost(data []float32) error {
	if len(data) != t.buf.Len() {
		return fmt.Errorf("torch: host data %d elements for tensor of %d", len(data), t.buf.Len())
	}
	if !t.buf.Functional() {
		return nil
	}
	copy(t.buf.Data(), data)
	return nil
}

// SymmetricTensor is a tensor replicated across the symmetric heap of
// every PE — the paper's new allocation API for buffers that collectives
// and fused operators read and write remotely.
type SymmetricTensor struct {
	shape []int
	symm  *shmem.Symm
}

// Shape returns the per-PE dimensions.
func (t *SymmetricTensor) Shape() []int { return append([]int(nil), t.shape...) }

// Symm exposes the underlying symmetric allocation.
func (t *SymmetricTensor) Symm() *shmem.Symm { return t.symm }

// On returns the buffer instance on a PE.
func (t *SymmetricTensor) On(pe int) *gpu.Buffer { return t.symm.On(pe) }

// Framework binds a communication world to an operator registry.
type Framework struct {
	world *shmem.World
	ops   map[string]Op
}

// Op is a registered operator: it receives the coordinating process and
// opaque attributes, and returns an operator-specific result.
type Op func(p *sim.Proc, attrs map[string]any) (any, error)

// New builds a framework over a world with the fused and baseline
// operators of the paper pre-registered.
func New(world *shmem.World) *Framework {
	f := &Framework{world: world, ops: map[string]Op{}}
	registerBuiltins(f)
	return f
}

// World returns the bound communication world.
func (f *Framework) World() *shmem.World { return f.world }

// SymmetricEmpty allocates a symmetric tensor of the given per-PE shape
// (the roc_shmem_malloc-backed torch.empty analogue).
func (f *Framework) SymmetricEmpty(shape ...int) (*SymmetricTensor, error) {
	n, err := numel(shape)
	if err != nil {
		return nil, err
	}
	return &SymmetricTensor{shape: append([]int(nil), shape...), symm: f.world.Malloc(n)}, nil
}

// Register installs an operator under a name. Re-registering a name
// returns an error so frameworks notice conflicting extensions.
func (f *Framework) Register(name string, op Op) error {
	if _, dup := f.ops[name]; dup {
		return fmt.Errorf("torch: operator %q already registered", name)
	}
	f.ops[name] = op
	return nil
}

// Ops lists the registered operator names, sorted.
func (f *Framework) Ops() []string {
	names := make([]string, 0, len(f.ops))
	for n := range f.ops {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Call dispatches a registered operator by name.
func (f *Framework) Call(p *sim.Proc, name string, attrs map[string]any) (any, error) {
	op, ok := f.ops[name]
	if !ok {
		return nil, fmt.Errorf("torch: unknown operator %q", name)
	}
	return op(p, attrs)
}

// attr fetches a typed attribute.
func attr[T any](attrs map[string]any, key string) (T, error) {
	var zero T
	v, ok := attrs[key]
	if !ok {
		return zero, fmt.Errorf("torch: missing attribute %q", key)
	}
	tv, ok := v.(T)
	if !ok {
		return zero, fmt.Errorf("torch: attribute %q has type %T", key, v)
	}
	return tv, nil
}

// registerBuiltins installs the paper's operators. Each fused operator
// has an rccl:: baseline twin so benchmarks and graph passes can swap
// execution models without touching call sites.
func registerBuiltins(f *Framework) {
	for _, err := range []error{
		registerPair[*core.EmbeddingAllToAll](f, "embedding_all2all"),
		registerPair[*core.GEMVAllReduce](f, "gemv_allreduce"),
		registerPair[*core.GEMMAllToAll](f, "gemm_all2all"),
	} {
		if err != nil {
			panic(err)
		}
	}
}

// registerPair installs the fused:: and rccl:: entries of one pair
// operator type. Each entry runs the "op" attribute, which must be a T:
// the registry keeps its per-name operator type check.
func registerPair[T core.Pair](f *Framework, name string) error {
	entry := func(run func(T, *sim.Proc) core.Report) Op {
		return func(p *sim.Proc, attrs map[string]any) (any, error) {
			op, err := attr[T](attrs, "op")
			if err != nil {
				return nil, err
			}
			return run(op, p), nil
		}
	}
	if err := f.Register("fused::"+name, entry(T.RunFused)); err != nil {
		return err
	}
	return f.Register("rccl::"+name, entry(T.RunBaseline))
}

// BuildEmbeddingAllToAll assembles the fused embedding + All-to-All
// operator over per-rank table sets — the convenience constructor the
// integration exposes next to the raw op registry.
func (f *Framework) BuildEmbeddingAllToAll(pes []int, sets []*kernels.EmbeddingSet, globalBatch, sliceRows int, cfg core.Config) (*core.EmbeddingAllToAll, error) {
	return core.NewEmbeddingAllToAll(f.world, pes, sets, globalBatch, sliceRows, cfg)
}

// BuildGEMVAllReduce assembles the fused GEMV + AllReduce operator.
func (f *Framework) BuildGEMVAllReduce(pes []int, gemvs []*kernels.GEMV, cfg core.Config) (*core.GEMVAllReduce, error) {
	return core.NewGEMVAllReduce(f.world, pes, gemvs, cfg)
}

// BuildGEMMAllToAll assembles the fused GEMM + All-to-All operator.
func (f *Framework) BuildGEMMAllToAll(pes []int, gemms []*kernels.GEMM, cfg core.Config) (*core.GEMMAllToAll, error) {
	return core.NewGEMMAllToAll(f.world, pes, gemms, cfg)
}
