// Package core turns the sharded engine of internal/zero into ZeRO-Infinity
// (paper Sec. 5-7). Infinity is ZeRO-3 with a different answer to one
// question — where do a rank's fp16 parameter shards and fp32 optimizer
// shards live — so this package holds no engine body of its own: it maps a
// Config onto zero.NewShardedEngine and supplies what only Infinity has:
//
//   - the NVMe tier (tier.go): the infinity offload engine — shard regions on
//     a per-rank store and one fixed ring of pinned staging buffers through
//     which every transfer runs: shard read-ahead along the traced operator
//     sequence, the streamed optimizer step and its write-backs, placement
//     and the rank-state streams;
//   - a budgeted (optionally pre-fragmented) GPU allocator accounting the
//     gathered working set, whose exhaustion fails the step with an error;
//   - CPU offload of activation checkpoints (ckptstore.go);
//   - per-device memory trackers (GPUTracker/CPUTracker): the placements
//     decide which device a shard's bytes count against.
//
// GPU and CPU placements run on zero's resident tier: Infinity with both
// states on GPU is ZeRO-3, collective for collective. Memory-centric tiling
// for operators too large to materialize whole is a model-layer feature
// (model.Config.Tiling); the engine sees tiles as ordinary parameters and
// gathers, prefetches and releases them with no special-casing.
//
// Placement moves bytes, never values: every fp16/fp32 quantity round-trips
// through staging buffers and storage exactly, so a ZeRO-Infinity run is
// bit-identical to plain data-parallel training — the property the
// equivalence tests assert.
package core

import (
	"repro/internal/optim"
	"repro/internal/tensor"
	"repro/internal/zero"
)

// Config configures an InfinityEngine.
type Config struct {
	// Params places the fp16 parameter shards (OnGPU, OnCPU, OnNVMe).
	Params zero.Placement
	// Optimizer places the fp32 master/momentum/variance shards.
	Optimizer zero.Placement
	// OffloadActivations stores activation checkpoints in CPU memory.
	// Requires the model to enable CheckpointActivations.
	OffloadActivations bool
	// PrefetchDepth is how many upcoming parameter shards the overlap
	// engine reads ahead of the consuming operator (0 disables prefetch).
	// It is the shared depth/budget for both overlap stages: speculative
	// NVMe reads and, with Overlap set, speculative allgathers.
	PrefetchDepth int
	// Overlap enables the communication half of the overlap-centric design:
	// parameter allgathers for the next PrefetchDepth trace entries are
	// issued asynchronously during the current operator's compute, and
	// gradient reductions are launched asynchronously from the backward
	// hooks, a few in flight at a time, with a drain barrier before the
	// overflow check. It means the same on every engine: the replicated
	// stages (internal/zero) launch their all-reduces the same way.
	// Trajectories stay bit-identical to the synchronous engine.
	Overlap bool

	Adam             optim.AdamConfig
	LossScale        float64
	DynamicLossScale bool
	Seed             uint64
	// ClipNorm, when positive, clips the global gradient L2 norm.
	ClipNorm float64

	// NVMeDir, when non-empty, backs the per-rank NVMe store with a real
	// temp file in that directory; otherwise an in-memory store is used.
	NVMeDir string

	// GPUMemory, when positive, enforces a contiguous-allocator budget for
	// gathered parameters (fp16 bytes). PreFragment additionally applies
	// the paper's Fig. 6b protocol: allocations above the chunk size fail.
	GPUMemory   int64
	PreFragment int64

	// Backend is the compute backend kernels dispatch through (nil selects
	// the serial reference backend). Every backend is bit-identical, so
	// this is purely a speed knob.
	Backend tensor.Backend

	// Partition selects the parameter-partitioning strategy (Fig. 6c):
	// per-parameter 1/dp slicing (default) or owner-rank broadcast. Both
	// train bit-identically; they differ in which links the gathers and
	// gradient reductions keep busy and therefore in achieved aggregate
	// bandwidth (Stats.CommTraffic). Both prefetch stages work under
	// either: with PartitionBroadcast and Params==OnNVMe only the owner
	// reads a shard, but every rank keeps the same read-ahead entries, so
	// the speculative broadcasts stay matched rank to rank.
	Partition zero.Partitioning
}

func (c *Config) setDefaults() {
	if c.Adam == (optim.AdamConfig{}) {
		c.Adam = optim.DefaultAdamConfig()
	}
	if c.LossScale == 0 {
		c.LossScale = 1
	}
	c.Backend = tensor.DefaultBackend(c.Backend)
}

// Stats summarizes one engine's activity for the experiment harness.
type Stats = zero.Stats
