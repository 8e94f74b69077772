package core

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/module"
)

// errGPUOOM wraps allocator failures so RunUnderBudget can convert the panic
// that aborts a forward pass into an error (the CUDA-OOM analogue).
type errGPUOOM struct{ err error }

// AllocHooks is a minimal single-process engine used by the memory-centric
// tiling experiment (Fig. 6b protocol): parameters are "gathered" by
// allocating their fp16 footprint from a budgeted contiguous allocator and
// released afterwards, reproducing ZeRO-3's fetch-and-release pattern
// against limited, possibly pre-fragmented device memory. Values persist in
// a host-side cache across release, standing in for the partitioned store.
type AllocHooks struct {
	Alloc *mem.Allocator
	Seed  uint64

	blocks map[*module.Param]mem.Block
	vals   map[*module.Param][]float32
	// PeakLive tracks the largest simultaneous gathered footprint.
	PeakLive int64
	live     int64
}

// NewAllocHooks returns hooks over the given allocator.
func NewAllocHooks(alloc *mem.Allocator, seed uint64) *AllocHooks {
	return &AllocHooks{
		Alloc:  alloc,
		Seed:   seed,
		blocks: make(map[*module.Param]mem.Block),
		vals:   make(map[*module.Param][]float32),
	}
}

func (h *AllocHooks) gather(m module.Module) {
	for _, p := range m.Params() {
		if p.Materialized() {
			continue
		}
		b, err := h.Alloc.Alloc(p.FP16Bytes())
		if err != nil {
			panic(errGPUOOM{fmt.Errorf("gathering %s: %w", p.Name, err)})
		}
		h.blocks[p] = b
		v, ok := h.vals[p]
		if !ok {
			v = model.InitValues(p, h.Seed)
			h.vals[p] = v
		}
		p.SetData(v)
		h.live += p.FP16Bytes()
		if h.live > h.PeakLive {
			h.PeakLive = h.live
		}
	}
}

func (h *AllocHooks) release(m module.Module) {
	for _, p := range m.Params() {
		if !p.Materialized() {
			continue
		}
		h.Alloc.Release(h.blocks[p])
		delete(h.blocks, p)
		p.ReleaseData()
		h.live -= p.FP16Bytes()
	}
}

// PreForward implements module.Hooks.
func (h *AllocHooks) PreForward(m module.Module) { h.gather(m) }

// PostForward implements module.Hooks.
func (h *AllocHooks) PostForward(m module.Module) { h.release(m) }

// PreBackward implements module.Hooks.
func (h *AllocHooks) PreBackward(m module.Module) { h.gather(m) }

// PostBackward implements module.Hooks.
func (h *AllocHooks) PostBackward(m module.Module) { h.release(m) }

// RunUnderBudget executes fn, converting a gather-OOM panic into an error.
func RunUnderBudget(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if oom, ok := r.(errGPUOOM); ok {
				err = oom.err
				return
			}
			panic(r)
		}
	}()
	fn()
	return nil
}

var _ module.Hooks = (*AllocHooks)(nil)
