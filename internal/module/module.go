package module

import (
	"repro/internal/mem"
	"repro/internal/tensor"
)

// Module is a node in the model tree. Composite modules return children;
// leaves own parameters and compute.
type Module interface {
	Name() string
	Params() []*Param
	Children() []Module
}

// Layer is a leaf (or checkpointable composite) that transforms hidden
// states. Forward must stash whatever it needs for Backward when
// rt.SaveActivations() is true. Backward consumes the most recent stashed
// activation (LIFO when a layer is re-entered, though the reproduction's
// models call each layer once per step).
type Layer interface {
	Module
	Forward(rt *Runtime, x *tensor.Tensor) *tensor.Tensor
	Backward(rt *Runtime, dy *tensor.Tensor) *tensor.Tensor
}

// Hooks receive the runtime's pre/post notifications — the reproduction of
// ZeRO-Infinity's injected PyTorch hooks. Engines implement Hooks to gather
// parameters before use, and partition/offload them (and their gradients)
// after use.
type Hooks interface {
	PreForward(m Module)
	PostForward(m Module)
	PreBackward(m Module)
	PostBackward(m Module)
}

// NopHooks is the no-engine default.
type NopHooks struct{}

// PreForward implements Hooks.
func (NopHooks) PreForward(Module) {}

// PostForward implements Hooks.
func (NopHooks) PostForward(Module) {}

// PreBackward implements Hooks.
func (NopHooks) PreBackward(Module) {}

// PostBackward implements Hooks.
func (NopHooks) PostBackward(Module) {}

// CheckpointStore decides where checkpointed block inputs live between the
// forward and backward passes. The default (nil) keeps them as in-memory
// tensors on the "GPU"; ZeRO-Infinity installs a CPU-offloading store
// (paper Sec. 5.1.2 / 5.2.3).
type CheckpointStore interface {
	// Put stores t and returns a handle.
	Put(t *tensor.Tensor) int
	// Get retrieves and removes the tensor for handle h.
	Get(h int) *tensor.Tensor
	// Reset discards every tensor still stored (an abandoned step's).
	Reset()
}

// Runtime threads hook dispatch and activation-saving state through a
// forward/backward pass. A Runtime is used by a single goroutine (one rank).
type Runtime struct {
	hooks Hooks
	// save controls whether layers stash activations for backward: true in
	// an ordinary forward and during checkpoint recomputation, false inside
	// a checkpointed block's main forward (only the block input is kept).
	save bool

	// be is the compute backend every layer's kernels dispatch through.
	be tensor.Backend

	// step is the step-scoped activation arena the layers' NewMatrix/
	// Scratch requests draw from. nil means heap: every request falls back
	// to make/tensor.New, which is the bit-identity baseline the arena path
	// is tested against.
	step *mem.StepArena

	ckptStore CheckpointStore
}

// NewRuntime returns a runtime dispatching to hooks (NopHooks if nil) on the
// reference compute backend.
func NewRuntime(hooks Hooks) *Runtime {
	if hooks == nil {
		hooks = NopHooks{}
	}
	return &Runtime{hooks: hooks, save: true, be: tensor.Reference()}
}

// SetBackend installs the compute backend layers dispatch kernels through
// (nil restores the reference backend).
func (rt *Runtime) SetBackend(be tensor.Backend) { rt.be = tensor.DefaultBackend(be) }

// Backend returns the runtime's compute backend.
//
//zinf:hotpath
func (rt *Runtime) Backend() tensor.Backend { return rt.be }

// SetStepArena installs the step-scoped activation arena (nil restores heap
// allocation). Engines install one at construction and bracket each
// micro-batch with BeginStep/EndStep.
func (rt *Runtime) SetStepArena(a *mem.StepArena) { rt.step = a }

// StepArena returns the installed activation arena, or nil when layer
// allocations go to the heap.
//
//zinf:hotpath
func (rt *Runtime) StepArena() *mem.StepArena { return rt.step }

// BeginStep reclaims the previous step's activations and opens a new arena
// generation. A no-op without an arena.
//
//zinf:hotpath
func (rt *Runtime) BeginStep() {
	if rt.step != nil {
		rt.step.BeginStep()
	}
}

// EndStep reclaims the finished step's activations. With the BeginStep
// bracket this is belt-and-braces — BeginStep reclaims unconditionally — but
// it returns buffers to the free lists at the earliest point they are dead,
// keeping the arena's footprint at one step's live set. A no-op without an
// arena.
//
//zinf:hotpath
func (rt *Runtime) EndStep() {
	if rt.step != nil {
		rt.step.Reset()
	}
}

// NewMatrix returns a zeroed step-scoped [rows, cols] FP32 tensor — for
// call sites that accumulate into it. Valid until the engine's next
// BeginStep (or an enclosing Release scope).
//
//zinf:hotpath
func (rt *Runtime) NewMatrix(rows, cols int) *tensor.Tensor {
	if rt.step != nil {
		return rt.step.NewMatrix(rows, cols)
	}
	return tensor.New(tensor.FP32, rows, cols) //zinf:allow hotpathalloc heap fallback when no step arena is installed; engines install one and the zero-alloc gates run arena-backed
}

// NewMatrixUninit is NewMatrix with UNDEFINED contents, for call sites that
// fully overwrite the tensor (every matmul dst, softmax/gelu outputs).
//
//zinf:hotpath
func (rt *Runtime) NewMatrixUninit(rows, cols int) *tensor.Tensor {
	if rt.step != nil {
		return rt.step.NewMatrixUninit(rows, cols)
	}
	return tensor.New(tensor.FP32, rows, cols) //zinf:allow hotpathalloc heap fallback when no step arena is installed; engines install one and the zero-alloc gates run arena-backed
}

// AllocF32 returns a step-scoped []float32 of length n with UNDEFINED
// contents — headerless activation storage (softmax rows, layernorm stats).
//
//zinf:hotpath
func (rt *Runtime) AllocF32(n int) []float32 {
	if rt.step != nil {
		return rt.step.AllocF32(n)
	}
	return make([]float32, n) //zinf:allow hotpathalloc heap fallback when no step arena is installed; engines install one and the zero-alloc gates run arena-backed
}

// Scratch returns a transient []float32 the caller must return with
// PutScratch. Safe from concurrent kernel workers (per-worker scratch).
//
//zinf:hotpath
func (rt *Runtime) Scratch(n int) []float32 {
	if rt.step != nil {
		return rt.step.Scratch(n)
	}
	return make([]float32, n) //zinf:allow hotpathalloc heap fallback when no step arena is installed; engines install one and the zero-alloc gates run arena-backed
}

// PutScratch returns a Scratch buffer for reuse. A no-op without an arena.
//
//zinf:hotpath
func (rt *Runtime) PutScratch(s []float32) {
	if rt.step != nil {
		rt.step.PutScratch(s)
	}
}

// Mark opens an arena sub-scope for activation-checkpoint recompute.
// Returns the zero mark without an arena.
//
//zinf:hotpath
func (rt *Runtime) Mark() mem.StepMark {
	if rt.step != nil {
		return rt.step.Mark()
	}
	return mem.StepMark{}
}

// Release frees arena buffers allocated since m, keeping only the tensor
// keep (see mem.StepArena.Release). A no-op without an arena.
//
//zinf:hotpath
func (rt *Runtime) Release(m mem.StepMark, keep *tensor.Tensor) {
	if rt.step != nil {
		rt.step.Release(m, keep)
	}
}

// SetCheckpointStore installs an activation-checkpoint offload store.
func (rt *Runtime) SetCheckpointStore(s CheckpointStore) { rt.ckptStore = s }

// PutCheckpoint stores a checkpointed block input, offloading it if a store
// is installed. The returned handle feeds GetCheckpoint.
//
//zinf:hotpath
func (rt *Runtime) PutCheckpoint(t *tensor.Tensor) (handle int, offloaded bool) {
	if rt.ckptStore == nil {
		return 0, false
	}
	return rt.ckptStore.Put(t), true
}

// GetCheckpoint retrieves an offloaded checkpoint.
//
//zinf:hotpath
func (rt *Runtime) GetCheckpoint(h int) *tensor.Tensor {
	if rt.ckptStore == nil {
		panic("module: GetCheckpoint without a store")
	}
	return rt.ckptStore.Get(h)
}

// Hooks returns the installed hook set.
//
//zinf:hotpath
func (rt *Runtime) Hooks() Hooks { return rt.hooks }

// SaveActivations reports whether layers should stash activations.
//
//zinf:hotpath
func (rt *Runtime) SaveActivations() bool { return rt.save }

// SetSaveActivations toggles activation stashing and returns the previous
// value; used by checkpointed blocks.
//
//zinf:hotpath
func (rt *Runtime) SetSaveActivations(v bool) bool {
	old := rt.save
	rt.save = v
	return old
}

// Forward runs layer.Forward wrapped in Pre/PostForward hooks.
//
//zinf:hotpath
func (rt *Runtime) Forward(l Layer, x *tensor.Tensor) *tensor.Tensor {
	rt.hooks.PreForward(l)
	y := l.Forward(rt, x)
	rt.hooks.PostForward(l)
	return y
}

// Backward runs layer.Backward wrapped in Pre/PostBackward hooks.
//
//zinf:hotpath
func (rt *Runtime) Backward(l Layer, dy *tensor.Tensor) *tensor.Tensor {
	rt.hooks.PreBackward(l)
	dx := l.Backward(rt, dy)
	rt.hooks.PostBackward(l)
	return dx
}

// WithForward fires forward hooks around fn for modules whose compute does
// not fit the Layer signature (e.g. embedding lookup, loss heads).
func (rt *Runtime) WithForward(m Module, fn func()) {
	rt.hooks.PreForward(m)
	fn()
	rt.hooks.PostForward(m)
}

// WithBackward fires backward hooks around fn.
func (rt *Runtime) WithBackward(m Module, fn func()) {
	rt.hooks.PreBackward(m)
	fn()
	rt.hooks.PostBackward(m)
}

// Walk visits m and every descendant in depth-first pre-order.
func Walk(m Module, visit func(Module)) {
	visit(m)
	for _, c := range m.Children() {
		Walk(c, visit)
	}
}

// AllParams returns every parameter in the tree in deterministic
// depth-first order.
func AllParams(m Module) []*Param {
	var ps []*Param
	Walk(m, func(n Module) { ps = append(ps, n.Params()...) })
	return ps
}

// NumParams returns the total element count of the tree's parameters.
func NumParams(m Module) int64 {
	var n int64
	for _, p := range AllParams(m) {
		n += int64(p.Len())
	}
	return n
}

// Base provides Name/Params/Children plumbing for concrete modules.
type Base struct {
	ModName   string
	OwnParams []*Param
	Kids      []Module
}

// Name implements Module.
func (b *Base) Name() string { return b.ModName }

// Params implements Module.
func (b *Base) Params() []*Param { return b.OwnParams }

// Children implements Module.
func (b *Base) Children() []Module { return b.Kids }
