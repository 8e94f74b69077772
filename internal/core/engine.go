package core

import (
	"errors"

	"repro/internal/comm"
	"repro/internal/mem"
	"repro/internal/zero"
)

// InfinityEngine is the ZeRO-Infinity training engine for one rank: the
// sharded engine body of internal/zero (embedded — gather/release hooks,
// overlap, optimizer tail, checkpointing are its methods) over the tier the
// placements select, plus the Infinity-only attachments.
type InfinityEngine struct {
	*zero.Z3Engine

	nvme *nvmeTier           // nil when both placements are resident
	gpu  *mem.Allocator      // nil without a GPUMemory budget
	ckpt *cpuCheckpointStore // nil without OffloadActivations
}

// NewInfinityEngine builds the engine for one rank, performing partitioned
// initialization: each parameter's full init values exist only transiently
// before being sharded to the configured tier.
func NewInfinityEngine(cfg Config, c *comm.Comm, g zero.Model) (*InfinityEngine, error) {
	cfg.setDefaults()
	e := &InfinityEngine{}
	at := zero.Attachments{Scratch: zero.NewScratch()}
	if cfg.Params == zero.OnNVMe || cfg.Optimizer == zero.OnNVMe {
		t, err := newNVMeTier(cfg, c.Rank(), c.Size(), g, at.Scratch)
		if err != nil {
			return nil, err
		}
		e.nvme, at.Tier = t, t
	}
	if cfg.GPUMemory > 0 {
		e.gpu = mem.NewAllocator(cfg.GPUMemory)
		if cfg.PreFragment > 0 {
			e.gpu.PreFragment(cfg.PreFragment)
		}
		at.Budget = e.gpu
	}
	body, err := zero.NewZ3EngineOn(zero.Config{
		Adam:             cfg.Adam,
		LossScale:        cfg.LossScale,
		DynamicLossScale: cfg.DynamicLossScale,
		Seed:             cfg.Seed,
		ClipNorm:         cfg.ClipNorm,
		PrefetchDepth:    cfg.PrefetchDepth,
		Overlap:          cfg.Overlap,
		Backend:          cfg.Backend,
		Partition:        cfg.Partition,
		Topology:         cfg.Topology,
	}, c, g, at)
	if err != nil {
		e.Close()
		return nil, err
	}
	e.Z3Engine = body
	if cfg.OffloadActivations {
		e.ckpt = newCPUCheckpointStore(at.Scratch)
		body.Runtime().SetCheckpointStore(e.ckpt)
	}
	return e, nil
}

// Close releases the NVMe engine and store.
func (e *InfinityEngine) Close() {
	if e.nvme != nil {
		e.nvme.Close()
	}
}

// Stats returns cumulative engine statistics: the body's, plus the NVMe
// tier's and the attachments'.
func (e *InfinityEngine) Stats() Stats {
	s := e.Z3Engine.Stats()
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

// Step runs one training step on this rank's batch. A GPU-memory budget
// violation (working set exceeds Config.GPUMemory) is returned as an error
// wrapping mem.ErrOutOfMemory or mem.ErrFragmented, with the engine unwound
// to its between-steps state; an NVMe failure is returned as the I/O error.
func (e *InfinityEngine) Step(tokens, targets []int, batch int) (zero.StepResult, error) {
	return e.TryStep(tokens, targets, batch)
}

// StepAccum runs one training step with gradient accumulation over
// micro-batches (reduce per micro-batch, accumulate fp32 shards).
func (e *InfinityEngine) StepAccum(microTokens, microTargets [][]int, batchPerMicro int) (zero.StepResult, error) {
	return e.TryStepAccum(microTokens, microTargets, batchPerMicro)
}

// ErrIsOOM reports whether err is a GPU memory-budget failure.
func ErrIsOOM(err error) bool {
	return errors.Is(err, mem.ErrOutOfMemory) || errors.Is(err, mem.ErrFragmented)
}
