package core

import (
	"errors"
	"fmt"

	"repro/internal/comm"
	"repro/internal/mem"
	"repro/internal/module"
	"repro/internal/tensor"
	"repro/internal/zero"
)

// InfinityEngine is the ZeRO-Infinity training engine for one rank: the
// sharded engine body of internal/zero (embedded — Step/StepAccum, the
// gather/release hooks, overlap, optimizer tail, checkpointing and Close are
// its methods) over the tier the placements select, plus the Infinity-only
// attachments. A GPU-memory budget violation (working set exceeds
// Config.GPUMemory) fails the step with an error ErrIsOOM recognizes.
type InfinityEngine struct {
	*zero.ShardedEngine

	nvme *nvmeTier           // nil when both placements are resident
	gpu  *mem.Allocator      // nil without a GPUMemory budget
	ckpt *cpuCheckpointStore // nil without OffloadActivations

	// gpuT/cpuT attribute this rank's live bytes per device: the placements
	// decide which one holds the parameter and optimizer shards, the gathered
	// working set is always GPU, pinned staging and offloaded checkpoints CPU.
	gpuT, cpuT *mem.Tracker
}

// gpuBudget is the zero.Budget of every Infinity engine: it attributes the
// gathered working set to the GPU tracker and, under Config.GPUMemory,
// charges it to the contiguous allocator.
type gpuBudget struct {
	alloc *mem.Allocator // nil: unlimited
	t     *mem.Tracker
}

func (b gpuBudget) Alloc(size int64) (mem.Block, error) {
	blk := mem.Block{Size: size}
	if b.alloc != nil {
		var err error
		if blk, err = b.alloc.Alloc(size); err != nil {
			return blk, err
		}
	}
	b.t.Add(mem.CatWorkingSet, size)
	return blk, nil
}

func (b gpuBudget) Release(blk mem.Block) {
	if b.alloc != nil {
		b.alloc.Release(blk)
	}
	b.t.Add(mem.CatWorkingSet, -blk.Size)
}

// NewInfinityEngine builds the engine for one rank, performing partitioned
// initialization: each parameter's full init values exist only transiently
// before being sharded to the configured tier.
func NewInfinityEngine(cfg Config, c *comm.Comm, g zero.Model) (*InfinityEngine, error) {
	cfg.setDefaults()
	e := &InfinityEngine{
		gpuT: mem.NewTracker(fmt.Sprintf("gpu%d", c.Rank())),
		cpuT: mem.NewTracker(fmt.Sprintf("cpu%d", c.Rank())),
	}
	at := zero.Attachments{Scratch: zero.NewScratch()}
	if cfg.Params == zero.OnNVMe || cfg.Optimizer == zero.OnNVMe {
		t, err := newNVMeTier(cfg, c.Rank(), c.Size(), g, at.Scratch)
		if err != nil {
			return nil, err
		}
		e.nvme, at.Tier = t, t
		e.cpuT.Add(mem.CatPinnedStage, t.pinnedBytes())
	}
	if cfg.GPUMemory > 0 {
		e.gpu = mem.NewAllocator(cfg.GPUMemory)
		if cfg.PreFragment > 0 {
			e.gpu.PreFragment(cfg.PreFragment)
		}
	}
	at.Budget = gpuBudget{e.gpu, e.gpuT}
	if cfg.OffloadActivations {
		e.ckpt = newCPUCheckpointStore(e.cpuT, at.Scratch)
		at.Checkpoints = e.ckpt
	}
	body, err := zero.NewShardedEngine(zero.Config{
		Stage:            zero.Stage3,
		Adam:             cfg.Adam,
		LossScale:        cfg.LossScale,
		DynamicLossScale: cfg.DynamicLossScale,
		Seed:             cfg.Seed,
		ClipNorm:         cfg.ClipNorm,
		PrefetchDepth:    cfg.PrefetchDepth,
		Overlap:          cfg.Overlap,
		Backend:          cfg.Backend,
		Partition:        cfg.Partition,
	}, c, g, at)
	if err != nil {
		if e.nvme != nil {
			e.nvme.Close()
		}
		return nil, err
	}
	e.ShardedEngine = body
	// The resident shards count against the device their placement names
	// (NVMe-placed state occupies neither).
	device := map[zero.Placement]*mem.Tracker{zero.OnGPU: e.gpuT, zero.OnCPU: e.cpuT}
	for i, p := range module.AllParams(g) {
		s := int64(zero.ShardLen(cfg.Partition, i, p.Len(), c.Rank(), c.Size()))
		if t := device[cfg.Params]; t != nil {
			t.Add(mem.CatParamsFP16, s*tensor.HalfBytes)
		}
		if t := device[cfg.Optimizer]; t != nil {
			t.Add(mem.CatOptimState, s*12)
		}
	}
	return e, nil
}

// Stats returns cumulative engine statistics: the body's, plus the NVMe
// tier's and the attachments'.
func (e *InfinityEngine) Stats() Stats {
	s := e.ShardedEngine.Stats()
	if e.nvme != nil {
		e.nvme.addStats(&s)
	}
	if e.ckpt != nil {
		s.CkptBytesOffload = e.ckpt.bytesOffloaded
	}
	if e.gpu != nil {
		s.GPUPeakBytes = e.gpu.Peak()
	}
	return s
}

// GPUTracker and CPUTracker expose the per-device memory accounting.
func (e *InfinityEngine) GPUTracker() *mem.Tracker { return e.gpuT }

// CPUTracker exposes CPU-tier accounting.
func (e *InfinityEngine) CPUTracker() *mem.Tracker { return e.cpuT }

// ErrIsOOM reports whether err is a GPU memory-budget failure.
func ErrIsOOM(err error) bool {
	return errors.Is(err, mem.ErrOutOfMemory) || errors.Is(err, mem.ErrFragmented)
}
