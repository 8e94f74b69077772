// Package zero implements the ZeRO family of data-parallel training engines
// from the paper's Table 2 taxonomy as one engine body, ShardedEngine
// (z3.go, overlap.go), whose Config.Stage picks what is partitioned:
//
//	Data parallel (DDP)  — everything replicated on GPU
//	ZeRO-1               — optimizer states partitioned
//	ZeRO-2               — optimizer states + gradients partitioned
//	ZeRO-Offload         — ZeRO-2 placement with optimizer states on CPU
//	ZeRO-3               — parameters partitioned too
//	ZeRO-Infinity        — ZeRO-3 over the tier, GPU budget and checkpoint
//	                       store internal/core attaches
//
// Below Stage3 the parameters stay materialized on every rank, so the hooks
// only reduce gradients; at Stage3 they also gather and release parameters.
// Everything else exists once: the hook-driven gather/release, the
// external-parameter registry, gradient reduce and fold, the gather
// prefetcher, the overflow/unscale/clip/optimizer tail, the single recover
// site, LoadParams, FullParams and the rank-state writer/reader
// (statefile.go, statecodec.go). Where the optimizer state (and at Stage3
// the fp16 parameter shards) live is the Tier interface (tier.go): Resident
// here, replicaTier for the replicated stages, the NVMe tier in
// internal/core.
//
// All stages share one gradient/update recipe so their training
// trajectories are *bit-identical* given the same ranks, seeds and batches:
// local fp32 grads are encoded to fp16, reduced across ranks in rank order
// with fp32 accumulation, re-encoded to fp16, unscaled by 1/(lossScale·dp),
// and fed to elementwise fp32 Adam on master weights initialized from the
// fp16 init. The equivalence tests in this package assert exact equality.
package zero

import (
	"fmt"

	"repro/internal/optim"
	"repro/internal/tensor"
)

// Stage selects how much of the model state is partitioned (paper Sec. 2).
type Stage int

// Partitioning stages.
const (
	StageDDP Stage = iota // classic data parallelism, no partitioning
	Stage1                // optimizer states partitioned
	Stage2                // + gradients partitioned
	Stage3                // + parameters partitioned
)

// String returns the conventional name.
func (s Stage) String() string {
	switch s {
	case StageDDP:
		return "ddp"
	case Stage1:
		return "zero1"
	case Stage2:
		return "zero2"
	case Stage3:
		return "zero3"
	}
	return fmt.Sprintf("stage(%d)", int(s))
}

// Partitioning selects how stage-3 engines split parameters across the
// data-parallel ranks — the two strategies of the paper's Fig. 6c.
type Partitioning int

const (
	// PartitionSlice is bandwidth-centric partitioning (paper Sec. 6.1, the
	// default): every parameter is sliced 1/dp across all ranks, so a
	// gather is an allgather that keeps every link busy and achieves
	// aggregate bandwidth proportional to the rank count.
	PartitionSlice Partitioning = iota
	// PartitionBroadcast is the owner-rank baseline: each parameter is
	// wholly owned by one rank (round-robin by parameter index), gathers
	// are broadcasts bottlenecked on the owner's links, and gradients
	// reduce to the owner. Trains bit-identically to PartitionSlice; only
	// the byte flow (and therefore achieved bandwidth) differs.
	PartitionBroadcast
)

// String returns the strategy name ("slice" / "broadcast").
func (p Partitioning) String() string {
	if p == PartitionBroadcast {
		return "broadcast"
	}
	return "slice"
}

// ParsePartitioning resolves a strategy name ("", "slice", "broadcast").
func ParsePartitioning(s string) (Partitioning, error) {
	switch s {
	case "", "slice":
		return PartitionSlice, nil
	case "broadcast":
		return PartitionBroadcast, nil
	}
	return PartitionSlice, fmt.Errorf("zero: unknown partitioning %q (slice|broadcast)", s)
}

// Placement says where a class of model state lives (paper Table 2).
type Placement int

// Device tiers.
const (
	OnGPU Placement = iota
	OnCPU
	OnNVMe
)

// String returns the tier name.
func (p Placement) String() string {
	switch p {
	case OnCPU:
		return "cpu"
	case OnNVMe:
		return "nvme"
	default:
		return "gpu"
	}
}

// Strategy is a row of the paper's Table 2: a named combination of
// partitioning and placement for optimizer+gradient state and parameters.
type Strategy struct {
	Name string
	// OptGradDevices / ParamDevices list the tiers each state may occupy,
	// fastest first (e.g. NVMe strategies spill GPU→CPU→NVMe).
	OptGradDevices   []Placement
	ParamDevices     []Placement
	OptGradPartition bool
	ParamPartition   bool
}

// Table2 reproduces the paper's Table 2 rows in order.
func Table2() []Strategy {
	return []Strategy{
		{"Data parallel", []Placement{OnGPU}, []Placement{OnGPU}, false, false},
		{"ZeRO 2", []Placement{OnGPU}, []Placement{OnGPU}, true, false},
		{"ZeRO-Offload", []Placement{OnCPU, OnGPU}, []Placement{OnGPU}, true, false},
		{"3D Parallelism", []Placement{OnGPU}, []Placement{OnGPU}, true, true},
		{"ZeRO 3", []Placement{OnGPU}, []Placement{OnGPU}, true, true},
		{"ZeRO-Inf-CPU", []Placement{OnCPU, OnGPU}, []Placement{OnCPU, OnGPU}, true, true},
		{"ZeRO-Inf-NVMe", []Placement{OnNVMe, OnCPU, OnGPU}, []Placement{OnNVMe, OnCPU, OnGPU}, true, true},
	}
}

// Config configures any engine in this package.
type Config struct {
	Stage Stage
	Adam  optim.AdamConfig
	// LossScale is the initial loss scale (default 1: disabled).
	LossScale float64
	// DynamicLossScale enables scale adaptation.
	DynamicLossScale bool
	// Seed drives deterministic parameter initialization.
	Seed uint64
	// OffloadOptimizer places optimizer state on CPU (ZeRO-Offload when
	// Stage==Stage2): the engine counts the gradient and parameter bytes
	// that cross the GPU<->CPU link (BytesToCPU, BytesFromCPU).
	OffloadOptimizer bool
	// ClipNorm, when positive, clips the global (all-parameter, all-rank)
	// gradient L2 norm to this value before the optimizer step.
	ClipNorm float64
	// PrefetchDepth sizes the stage-3 gather prefetcher (paper Sec. 6.2):
	// with Overlap set, the allgathers for the next PrefetchDepth
	// parameters in the learned gather trace are issued asynchronously
	// while the current module computes. 0 disables prefetch. Results are
	// bit-identical. Below Stage3 nothing is gathered and it is ignored.
	PrefetchDepth int
	// Overlap enables asynchronous collectives: every stage's gradient
	// reductions (the DDP and ZeRO-1 all-reduces, the ZeRO-2 and ZeRO-3
	// reduce-scatters) launch asynchronously from the backward hooks, at
	// most a fixed window of them in flight (the oldest is folded when a
	// launch passes it, so a rank never holds more than a few fp16
	// gradient copies), the rest drained at micro-batch boundaries and
	// before the overflow check in StepAccum; at Stage3 PrefetchDepth > 0
	// additionally speculates parameter allgathers. Without it each
	// reduction is waited in the hook that issued it. Results are
	// bit-identical to the synchronous path.
	Overlap bool
	// Backend is the compute backend the engine's and the model's kernels
	// dispatch through (nil selects the serial reference backend). Every
	// backend is bit-identical, so this is purely a speed knob. The
	// collectives' fp16 codec is the world's (comm.WorldOptions.CodecBackend).
	Backend tensor.Backend
	// Partition selects the stage-3 parameter-partitioning strategy
	// (Fig. 6c): 1/dp slicing (default) or owner-rank broadcast. Both train
	// bit-identically; they differ in which links the gathers and gradient
	// reductions keep busy (the communicator's world carries the topology
	// that tells the links apart). Below Stage3 it is ignored: the engine
	// normalises it to slicing.
	Partition Partitioning
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

// StepResult reports one training step.
type StepResult struct {
	// Loss is the global mean loss across ranks.
	Loss float64
	// Skipped reports an fp16-overflow step (no parameter update).
	Skipped bool
	// LossScale is the scale in effect after the step.
	LossScale float64
}
