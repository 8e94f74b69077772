package mem

import (
	"sync"

	"repro/internal/tensor"
)

// StepArena is the step-scoped activation allocator: every tensor and scratch
// slice the model layers create during one training step (forward
// activations, backward grad temporaries, softmax/gelu scratch, tiled-
// projection staging) comes from here instead of make, and the whole set is
// reclaimed in O(live) at the next BeginStep. After the first step warms the
// size-class free lists, a steady-state step performs zero heap allocations
// in the model layer — the full-step extension of the engine-side invariant
// (Arena) that TestFullStepZeroAllocs and the stepalloc bench
// record gate.
//
// Three acquisition modes:
//
//   - NewMatrix / NewMatrixUninit / AllocF32: step-scoped. The buffer (and,
//     for the matrix forms, its pooled *tensor.Tensor header) is registered
//     live and stays valid until the next BeginStep/Reset — or until an
//     enclosing Mark/Release sub-scope frees it early.
//   - Scratch / PutScratch: transient, caller-released. For per-worker
//     scratch inside parallel kernels; safe to call concurrently.
//   - Mark / Release: a sub-scope for activation-checkpoint recompute.
//     Block backward marks, recomputes the forward (whose activations land
//     above the mark), runs the backward, then releases everything above the
//     mark except the one result tensor it returns — so each checkpointed
//     block's recomputed activations reuse the region freed by the previous
//     block instead of growing the arena by O(layers).
//
// Marks are generation-stamped: BeginStep/Reset bump the generation and
// Release panics on a mark from a previous step, catching a
// checkpoint-scope that leaked across a step boundary (which would silently
// free live buffers) at the point of misuse.
//
// Contents of NewMatrixUninit/AllocF32/Scratch buffers are UNDEFINED (stale
// data from earlier in the run); every model call site either fully
// overwrites the buffer or uses NewMatrix, so arena-backed runs stay
// bit-identical to heap-backed runs.
//
// Retention is bounded like Arena: at most maxFreeStepClass idle
// buffers per size class and maxFreeHeaders idle tensor headers are kept;
// the rest are dropped for the GC, so a transient burst (one oversized batch)
// cannot pin memory forever.
type StepArena struct {
	mu sync.Mutex

	// free[k] holds idle buffers of capacity exactly 1<<k, shared by the
	// registered and scratch acquisition modes.
	free [arenaClasses][][]float32

	// live is the registry of step-scoped buffers; reclaimed wholesale by
	// BeginStep/Reset and partially by Release.
	live [][]float32

	// hdrLive/hdrFree pool the *tensor.Tensor headers handed out by
	// NewMatrix(Uninit), so a recycled matrix costs zero allocations
	// (ResetFP32Matrix reuses the retained shape slice too).
	hdrLive []*tensor.Tensor
	hdrFree []*tensor.Tensor

	// gen stamps marks; bumped on every full reclaim.
	gen uint64

	gets, hits, retained, steps int64
}

// maxFreeStepClass bounds idle buffers kept per size class. A training step
// of a deep model holds ~tens of live activations per layer; 1024 per class
// comfortably covers steady state while still shedding bursts.
const maxFreeStepClass = 1024

// maxFreeHeaders bounds the idle tensor-header pool.
const maxFreeHeaders = 4096

// StepMark is a point-in-time cursor into the arena's live registry,
// stamped with the generation it was taken in. The zero value is a valid
// no-op mark for generation 0.
type StepMark struct {
	live, hdrs int
	gen        uint64
}

// NewStepArena returns an empty step arena.
func NewStepArena() *StepArena { return &StepArena{} }

// BeginStep reclaims every step-scoped buffer and header into the free
// lists and starts a new generation. Engines call it at the top of each
// micro-batch, so a buffer handed out during step N is guaranteed dead by
// the time step N+1 allocates. It is also the recovery path: an aborted
// step (simulated OOM, gradient overflow) leaves live buffers behind, and
// the next BeginStep reclaims them unconditionally.
//
//zinf:hotpath
func (a *StepArena) BeginStep() {
	a.mu.Lock()
	a.reclaimLocked()
	a.steps++
	a.mu.Unlock()
}

// Reset reclaims everything like BeginStep without counting a step — the
// teardown/abandonment form of the lifecycle.
//
//zinf:hotpath
func (a *StepArena) Reset() {
	a.mu.Lock()
	a.reclaimLocked()
	a.mu.Unlock()
}

//zinf:hotpath
func (a *StepArena) reclaimLocked() {
	for i, s := range a.live {
		a.putFreeLocked(s)
		a.live[i] = nil
	}
	a.live = a.live[:0]
	for i, h := range a.hdrLive {
		if len(a.hdrFree) < maxFreeHeaders {
			a.hdrFree = append(a.hdrFree, h)
		}
		a.hdrLive[i] = nil
	}
	a.hdrLive = a.hdrLive[:0]
	a.gen++
}

// Mark opens a sub-scope: a cursor capturing the current live set. Paired
// with Release it brackets activation-checkpoint recompute.
//
//zinf:hotpath
func (a *StepArena) Mark() StepMark {
	a.mu.Lock()
	m := StepMark{live: len(a.live), hdrs: len(a.hdrLive), gen: a.gen}
	a.mu.Unlock()
	return m
}

// Release frees every step-scoped buffer and header allocated since m back
// into the free lists, except the one backing keep (which stays registered
// and lives until the next BeginStep/Reset). keep may be nil, and may also
// predate the mark — then nothing is exempted. Release panics if m was
// taken in an earlier generation: the scope outlived the step that opened
// it, and honoring it would free buffers the current step still owns.
//
//zinf:hotpath
func (a *StepArena) Release(m StepMark, keep *tensor.Tensor) {
	a.mu.Lock()
	if m.gen != a.gen {
		a.mu.Unlock()
		panic("mem: StepArena.Release with a mark from a previous step (generation mismatch)")
	}
	var keepData []float32
	if keep != nil && keep.DType() == tensor.FP32 {
		keepData = keep.Float32s()
	}
	n := m.live
	for _, s := range a.live[m.live:] {
		if len(keepData) > 0 && len(s) > 0 && &s[0] == &keepData[0] {
			a.live[n] = s
			n++
			continue
		}
		a.putFreeLocked(s)
	}
	for i := n; i < len(a.live); i++ {
		a.live[i] = nil
	}
	a.live = a.live[:n]
	hn := m.hdrs
	for _, h := range a.hdrLive[m.hdrs:] {
		if h == keep {
			a.hdrLive[hn] = h
			hn++
			continue
		}
		if len(a.hdrFree) < maxFreeHeaders {
			a.hdrFree = append(a.hdrFree, h)
		}
	}
	for i := hn; i < len(a.hdrLive); i++ {
		a.hdrLive[i] = nil
	}
	a.hdrLive = a.hdrLive[:hn]
	a.mu.Unlock()
}

// NewMatrixUninit returns a step-scoped [rows, cols] FP32 tensor with
// UNDEFINED contents, valid until the next BeginStep/Reset (or enclosing
// Release). Header and backing buffer both come from pools, so the
// steady-state cost is zero allocations.
//
//zinf:hotpath
func (a *StepArena) NewMatrixUninit(rows, cols int) *tensor.Tensor {
	a.mu.Lock()
	s := a.getLocked(rows * cols)
	a.live = append(a.live, s)
	var t *tensor.Tensor
	if n := len(a.hdrFree); n > 0 {
		t = a.hdrFree[n-1]
		a.hdrFree[n-1] = nil
		a.hdrFree = a.hdrFree[:n-1]
	} else {
		t = new(tensor.Tensor) //zinf:allow hotpathalloc warmup header-pool miss; headers are recycled by BeginStep and every steady-state call is a hit
	}
	a.hdrLive = append(a.hdrLive, t)
	a.mu.Unlock()
	t.ResetFP32Matrix(s, rows, cols)
	return t
}

// NewMatrix is NewMatrixUninit with the contents zeroed — for call sites
// that accumulate into the tensor (attention's dqkv) and so depend on the
// tensor.New zero-init the heap path provided.
//
//zinf:hotpath
func (a *StepArena) NewMatrix(rows, cols int) *tensor.Tensor {
	t := a.NewMatrixUninit(rows, cols)
	clear(t.Float32s())
	return t
}

// AllocF32 returns a step-scoped []float32 of length n with UNDEFINED
// contents — the raw-slice form of NewMatrixUninit for scratch that never
// needs a tensor header (softmax probability rows, layernorm statistics).
//
//zinf:hotpath
func (a *StepArena) AllocF32(n int) []float32 {
	if n <= 0 {
		return nil
	}
	a.mu.Lock()
	s := a.getLocked(n)
	a.live = append(a.live, s)
	a.mu.Unlock()
	return s
}

// Scratch returns a transient []float32 of length n with UNDEFINED contents
// that the caller returns via PutScratch. Unlike AllocF32 it is not
// registered live, so it is safe for concurrent use from parallel kernel
// workers (each worker gets and puts its own scratch).
//
//zinf:hotpath
func (a *StepArena) Scratch(n int) []float32 {
	if n <= 0 {
		return nil
	}
	a.mu.Lock()
	s := a.getLocked(n)
	a.mu.Unlock()
	return s
}

// PutScratch returns a Scratch buffer to the free lists. Safe for concurrent
// use; PutScratch(nil) is a no-op.
//
//zinf:hotpath
func (a *StepArena) PutScratch(s []float32) {
	if cap(s) == 0 {
		return
	}
	a.mu.Lock()
	a.putFreeLocked(s)
	a.mu.Unlock()
}

//zinf:hotpath
func (a *StepArena) getLocked(n int) []float32 {
	a.gets++
	k := class(n)
	if k >= arenaClasses {
		// Oversize requests bypass the size classes entirely.
		return make([]float32, n) //zinf:allow hotpathalloc oversize request beyond the largest size class; steady-state activations are class-sized
	}
	if l := a.free[k]; len(l) > 0 {
		s := l[len(l)-1]
		l[len(l)-1] = nil
		a.free[k] = l[:len(l)-1]
		a.hits++
		return s[:n]
	}
	return make([]float32, n, 1<<k) //zinf:allow hotpathalloc warmup pool miss; the buffer is reclaimed by BeginStep/Release and every steady-state get is a hit
}

//zinf:hotpath
func (a *StepArena) putFreeLocked(s []float32) {
	c := cap(s)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	k := class(c)
	if k >= arenaClasses {
		return
	}
	if len(a.free[k]) < maxFreeStepClass {
		a.free[k] = append(a.free[k], s[:c])
		a.retained++
	}
}

// Stats reports lifetime buffer gets, the number served from the free
// lists, the number of reclaimed buffers retained, and the number of
// BeginStep calls — evidence of steady-state reuse for tests and debugging.
func (a *StepArena) Stats() (gets, hits, retained, steps int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.gets, a.hits, a.retained, a.steps
}
