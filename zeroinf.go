// Package zeroinf is the public API of the ZeRO-Infinity reproduction: a
// data-parallel Transformer training library in pure Go that implements the
// full ZeRO family (DDP, ZeRO-1/2/3, ZeRO-Offload) and ZeRO-Infinity — the
// infinity offload engine with GPU/CPU/NVMe placement, bandwidth-centric
// partitioning, overlap-centric prefetching, CPU activation-checkpoint
// offload, and memory-centric tiling — plus the paper's analytic and
// simulated evaluation harness.
//
// Ranks are goroutines (or OS processes over loopback TCP), collectives are
// issued tickets over an in-memory or socket transport, NVMe is a real
// asynchronous file-backed I/O engine; every engine trains bit-identically
// to plain data parallelism (see the equiv experiment).
//
// Quick start:
//
//	res, err := zeroinf.Train(zeroinf.TrainOptions{
//		Model:  zeroinf.ModelConfig{Vocab: 64, Hidden: 32, Heads: 4, Seq: 16, Layers: 2},
//		Engine: zeroinf.EngineConfig{Infinity: true, Params: zeroinf.OnCPU, Optimizer: zeroinf.OnCPU},
//		Ranks:  4, Steps: 10, BatchPerRank: 2,
//	})
package zeroinf

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/optim"
	"repro/internal/tensor"
	"repro/internal/zero"
)

// Re-exported configuration types. These alias the internal implementation
// types, so the full method sets are available through this package.
type (
	// ModelConfig describes the GPT-like Transformer to train. Set Tiling
	// to build the large projections (attention qkv/output, MLP fc1/fc2,
	// the tied LM head's token table) as memory-centric tiled operators;
	// engines then gather and release one tile at a time, cutting the max
	// live parameter working set (Stats.MaxLiveParamBytes) by ~the factor.
	ModelConfig = model.Config
	// GPT is the model; construct per rank with NewModel.
	GPT = model.GPT
	// Comm is one rank's communicator handle.
	Comm = comm.Comm
	// Stage selects the ZeRO partitioning stage for non-Infinity engines.
	Stage = zero.Stage
	// Placement selects the tier (GPU/CPU/NVMe) holding a state.
	Placement = zero.Placement
	// StepResult reports one training step.
	StepResult = zero.StepResult
	// AdamConfig holds optimizer hyperparameters.
	AdamConfig = optim.AdamConfig
	// InfinityStats reports ZeRO-Infinity engine activity.
	InfinityStats = core.Stats
	// ComputeBackend is the kernel-dispatch interface; all backends are
	// bit-identical, differing only in speed.
	ComputeBackend = tensor.Backend
	// Topology groups ranks into nodes with distinct intra-/inter-node
	// link bandwidths: a cost model under which the fabric accounts each
	// collective's bytes per link class and its achieved aggregate
	// bandwidth. It never changes what a collective delivers.
	Topology = comm.Topology
	// Partitioning selects the Fig. 6c parameter-partitioning strategy for
	// stage-3/Infinity engines: 1/dp slicing or owner-rank broadcast.
	Partitioning = zero.Partitioning
	// CommTraffic is one collective kind's modeled byte flow and simulated
	// cost (see Topology).
	CommTraffic = comm.TrafficStats
)

// Placement and stage constants.
const (
	OnGPU  = zero.OnGPU
	OnCPU  = zero.OnCPU
	OnNVMe = zero.OnNVMe

	StageDDP = zero.StageDDP
	Stage1   = zero.Stage1
	Stage2   = zero.Stage2
	Stage3   = zero.Stage3

	PartitionSlice     = zero.PartitionSlice
	PartitionBroadcast = zero.PartitionBroadcast
)

// ParseTopology parses a "<nodes>x<ranksPerNode>[:intra=..][:inter=..]"
// spec with finite, positive GB/s bandwidths ("" = flat fabric).
func ParseTopology(spec string) (*Topology, error) { return comm.ParseTopology(spec) }

// ParsePartitioning resolves a partitioning-strategy name
// ("", "slice", "broadcast").
func ParsePartitioning(s string) (Partitioning, error) { return zero.ParsePartitioning(s) }

// DefaultAdamConfig returns the standard large-model Adam recipe.
func DefaultAdamConfig() AdamConfig { return optim.DefaultAdamConfig() }

// Backends lists the available compute-backend names for EngineConfig.Backend.
func Backends() []string { return tensor.BackendNames() }

// BackendByName resolves a compute backend ("reference", "parallel"; "" is
// reference) for callers that want to inspect or share one directly.
func BackendByName(name string) (ComputeBackend, error) { return tensor.ByName(name) }

// NewModel builds a model tree (parameters declared, not initialized —
// engines own initialization and placement).
func NewModel(cfg ModelConfig) (*GPT, error) { return model.NewGPT(cfg) }

// SyntheticBatch produces a deterministic toy next-token-prediction batch.
func SyntheticBatch(seed uint64, cfg ModelConfig, batch int) (tokens, targets []int) {
	return model.SyntheticBatch(tensor.NewRNG(seed), cfg, batch)
}

// SPMD spawns fn on one goroutine per rank and waits — the standard entry
// point for single-process multi-rank training (the in-memory transport).
func SPMD(ranks int, fn func(c *Comm)) { comm.Run(ranks, fn) }

// Transport re-exports: the rank-to-rank data plane is pluggable. A World
// built over the in-memory transport hosts every rank as a goroutine; one
// built over the socket transport hosts a single rank per process,
// connected over TCP (see NewSockTransport and cmd/zinf-launch). Training
// trajectories are bit-identical across transports.
type (
	// World owns a transport plus the installed codec and topology.
	World = comm.World
	// WorldOptions configures a World at construction; the world is
	// immutable once built.
	WorldOptions = comm.WorldOptions
	// Transport is the pluggable rank-to-rank data plane.
	Transport = comm.Transport
	// SockConfig configures one rank's end of a socket-transport world.
	SockConfig = comm.SockConfig
)

// NewWorld builds a world from options. A nil Transport selects the
// in-memory reference transport over opts.Size goroutine ranks.
func NewWorld(opts WorldOptions) (*World, error) { return comm.New(opts) }

// NewSockTransport bootstraps one rank of a TCP-connected world, blocking
// until this rank holds a connection to every other rank (rank 0, listening
// on cfg.Coord, brokers the peers' addresses).
func NewSockTransport(cfg SockConfig) (Transport, error) { return comm.NewSockTransport(cfg) }

// ValidateTopology reports whether t can be installed on a world of size
// ranks — launchers call this to fail fast before spawning workers.
func ValidateTopology(t *Topology, ranks int) error { return comm.ValidateTopology(t, ranks) }

// EngineConfig selects and configures a training engine.
type EngineConfig struct {
	// Infinity selects the ZeRO-Infinity engine; otherwise Stage picks a
	// classic engine (DDP, ZeRO-1, ZeRO-2, ZeRO-3).
	Infinity bool
	Stage    Stage
	// OffloadOptimizer turns Stage2 into ZeRO-Offload.
	OffloadOptimizer bool

	// Infinity placements and features.
	Params             Placement
	Optimizer          Placement
	OffloadActivations bool
	// PrefetchDepth is the overlap-centric read-ahead window: how many
	// upcoming parameters (per the learned gather trace) have their
	// allgathers — and, on NVMe, their shard reads — issued speculatively
	// during the current operator's compute. Used by both the ZeRO-3 and
	// ZeRO-Infinity engines; 0 disables prefetch.
	PrefetchDepth int
	// Overlap launches every engine's gradient reductions — the DDP and
	// ZeRO-1 all-reduces, the ZeRO-2/3 and Infinity reduce-scatters —
	// asynchronously from the backward hooks (a few in flight at a time,
	// the rest drained before the overflow check) and, together with
	// PrefetchDepth, enables asynchronous parameter allgathers. Results are
	// bit-identical to the synchronous engines; only wall-clock changes.
	Overlap     bool
	NVMeDir     string // file-backed NVMe store directory ("" = in-memory)
	GPUMemory   int64  // optional GPU working-set budget in bytes
	PreFragment int64  // optional Fig. 6b fragmentation chunk

	Adam             AdamConfig
	LossScale        float64
	DynamicLossScale bool
	Seed             uint64
	// ClipNorm, when positive, clips the global gradient L2 norm before
	// each optimizer step.
	ClipNorm float64

	// Backend selects the compute backend by name: "" or "reference" for
	// the serial baseline, "parallel" for the blocked multi-goroutine
	// kernels. Training trajectories are bit-identical across backends.
	// Train also hands it to the world it builds as the collectives' codec
	// backend; a caller-built world chooses its own (WorldOptions).
	Backend string

	// Partition selects the stage-3/Infinity parameter-partitioning
	// strategy (Fig. 6c): PartitionSlice (1/dp, default) or
	// PartitionBroadcast (owner-rank). Trajectories are bit-identical;
	// achieved aggregate bandwidth differs (Stats.CommTraffic).
	Partition Partitioning
	// Topology, when set, groups ranks into nodes and the fabric models
	// intra- vs inter-node link cost (Stats.CommTraffic); training is
	// bit-identical to the flat fabric. The fabric belongs to the world:
	// Train builds its world with this topology, and NewEngine on a
	// caller-built world (worker mode) requires it to match the world's.
	// Nil accepts whatever the world has.
	Topology *Topology

	// CheckpointDir, together with CheckpointEvery, enables crash-consistent
	// asynchronous snapshotting: every CheckpointEvery optimizer steps each
	// rank serializes its training state into an arena-backed staging buffer
	// and hands it to a background writer that commits a generation
	// directory (rank states + consolidated fp16 weights + MANIFEST) while
	// training continues. See internal/ckpt for the format and crash
	// guarantees.
	CheckpointDir   string
	CheckpointEvery int
}

// Engine is the uniform training-engine interface.
type Engine interface {
	// Step runs one iteration on this rank's batch (tokens/targets of
	// length batch×Seq) and returns the global mean loss.
	Step(tokens, targets []int, batch int) (StepResult, error)
	// StepAccum runs one iteration with gradient accumulation over
	// micro-batches: one optimizer step after all micro-batches' gradients
	// have been reduced and accumulated.
	StepAccum(microTokens, microTargets [][]int, batchPerMicro int) (StepResult, error)
	// FullParams gathers the current fp16 weights (collective call).
	FullParams() map[string][]float32
	// Close releases engine resources (no-op for in-memory engines).
	Close()
}

// RankState is the per-rank checkpoint surface every engine implements:
// SaveRankState serializes this rank's complete training state (master
// weights, Adam moments, loss-scaler state, step count) without collectives;
// LoadRankState restores it and rebuilds the fp16 weights, exactly
// reproducing the uninterrupted trajectory. Under ZeRO-1/2 the fp16 rebuild
// in LoadRankState is collective, so all ranks must call it together.
type RankState interface {
	SaveRankState(w io.Writer) error
	LoadRankState(r io.Reader) error
}

// NewEngine constructs the configured engine for one rank: core's
// InfinityEngine, or for every classic stage the one engine body,
// *zero.ShardedEngine. The fabric is c's world's: a cfg.Topology that
// disagrees with it is an error.
func NewEngine(cfg EngineConfig, c *Comm, g *GPT) (Engine, error) {
	be, err := tensor.ByName(cfg.Backend)
	if err != nil {
		return nil, err
	}
	if cfg.Topology != nil {
		if err := c.CheckTopology(cfg.Topology); err != nil {
			return nil, err
		}
	}
	if cfg.Infinity {
		e, err := core.NewInfinityEngine(core.Config{
			Params:             cfg.Params,
			Optimizer:          cfg.Optimizer,
			OffloadActivations: cfg.OffloadActivations,
			PrefetchDepth:      cfg.PrefetchDepth,
			Overlap:            cfg.Overlap,
			Adam:               cfg.Adam,
			LossScale:          cfg.LossScale,
			DynamicLossScale:   cfg.DynamicLossScale,
			Seed:               cfg.Seed,
			ClipNorm:           cfg.ClipNorm,
			NVMeDir:            cfg.NVMeDir,
			GPUMemory:          cfg.GPUMemory,
			PreFragment:        cfg.PreFragment,
			Backend:            be,
			Partition:          cfg.Partition,
		}, c, g)
		if err != nil {
			return nil, err
		}
		return e, nil
	}
	zc := zero.Config{
		Stage:            cfg.Stage,
		Adam:             cfg.Adam,
		LossScale:        cfg.LossScale,
		DynamicLossScale: cfg.DynamicLossScale,
		Seed:             cfg.Seed,
		OffloadOptimizer: cfg.OffloadOptimizer,
		ClipNorm:         cfg.ClipNorm,
		PrefetchDepth:    cfg.PrefetchDepth,
		Overlap:          cfg.Overlap,
		Backend:          be,
		Partition:        cfg.Partition,
	}
	e, err := zero.NewShardedEngine(zc, c, g, zero.Attachments{})
	if err != nil {
		return nil, err
	}
	return e, nil
}

// TrainOptions configures the convenience training loop.
type TrainOptions struct {
	Model        ModelConfig
	Engine       EngineConfig
	Ranks        int
	Steps        int
	BatchPerRank int
	// Comm, when set, runs the training loop for this one rank on the
	// calling goroutine instead of spawning an SPMD world — the worker-mode
	// entry point used by zinf-launch, where every rank is its own process
	// holding one communicator of a socket-transport world. Ranks is
	// inferred from the world size (it may be left zero); batches are seeded
	// by absolute step and rank exactly as in SPMD mode, so an N-process
	// run's trajectory is bit-identical to the in-memory N-goroutine run.
	// The returned Losses/FinalStep/Stats describe this rank. Checkpointing
	// and Resume are not supported in worker mode.
	Comm *Comm
	// GradAccumSteps accumulates gradients over this many micro-batches per
	// optimizer step (default 1).
	GradAccumSteps int
	// DataSeed drives the synthetic batches (default 1).
	DataSeed uint64
	// OnStep, when set, observes rank 0's step results.
	OnStep func(step int, res StepResult)
	// Resume restarts from the newest complete checkpoint generation in
	// Engine.CheckpointDir: a cold start if the directory holds none, an
	// error naming them if it holds generations of which none validates.
	// Batches are seeded by absolute step, so a resumed run replays the
	// uninterrupted trajectory bit-identically.
	Resume bool
	// Stop, when closed, requests a clean early stop: ranks reach consensus
	// on the step boundary, take a final snapshot (if checkpointing is
	// enabled), and return.
	Stop <-chan struct{}

	// ckptWriter, when set (tests), overrides the async checkpoint writer
	// options — fault injection, deterministic kill points, retry budgets.
	// World is forced to Ranks.
	ckptWriter *ckpt.WriterOptions
}

// TrainResult reports a Train run.
type TrainResult struct {
	Losses []float64 // global mean loss per step, from StartStep on
	Stats  InfinityStats
	// StartStep is the first step of this run (non-zero after Resume).
	StartStep int
	// ResumeSkipped holds why Resume fell back past each newer generation
	// that failed validation, newest first; each error names its directory.
	ResumeSkipped []error
	// FinalStep is one past the last step executed (== Steps unless stopped
	// early via TrainOptions.Stop).
	FinalStep int
	// CheckpointErr reports an asynchronous snapshot failure. Training
	// itself completed; earlier complete generations remain usable.
	CheckpointErr error
}

// snapshotRank runs one rank's part of a snapshot at step: wait out the
// previously in-flight generation (bounding the pipeline at one snapshot in
// flight), stage and submit this rank's state file, and — via the
// collective FullParams gather every rank joins — rank 0's consolidated
// weights file. Commit errors are sticky in the writer and surfaced through
// Drain; only staging failures are returned here.
func snapshotRank(w *ckpt.Writer, e Engine, c *Comm, step int, pending []*ckpt.Ticket) ([]*ckpt.Ticket, error) {
	for _, t := range pending {
		t.Wait()
	}
	pending = pending[:0]
	rs, ok := e.(RankState)
	if !ok {
		return pending, fmt.Errorf("zeroinf: engine %T does not implement RankState", e)
	}
	st := w.Stage()
	if err := rs.SaveRankState(st); err != nil {
		w.Recycle(st)
		return pending, fmt.Errorf("zeroinf: rank %d snapshot at step %d: %w", c.Rank(), step, err)
	}
	pending = append(pending, w.Submit(uint64(step), step, ckpt.RankFileName(c.Rank()), st))
	full := e.FullParams() // collective: every rank participates
	if c.Rank() == 0 {
		ws := w.Stage()
		if err := WriteCheckpoint(ws, full); err != nil {
			w.Recycle(ws)
			return pending, fmt.Errorf("zeroinf: weights snapshot at step %d: %w", step, err)
		}
		pending = append(pending, w.Submit(uint64(step), step, ckpt.WeightsName, ws))
	}
	return pending, nil
}

// Train spawns an SPMD world, trains the model on deterministic synthetic
// data and returns the loss trajectory — the programmatic equivalent of
// cmd/zinf-train. With Engine.CheckpointDir/CheckpointEvery set it snapshots
// asynchronously as it goes; with Resume it restarts from the newest
// complete generation and — because batches are seeded by absolute step —
// replays the uninterrupted run bit-identically.
func Train(opts TrainOptions) (TrainResult, error) {
	if opts.Comm != nil {
		if opts.Engine.CheckpointDir != "" || opts.Resume {
			return TrainResult{}, fmt.Errorf("zeroinf: checkpointing is not supported in worker mode (TrainOptions.Comm set)")
		}
		if opts.Ranks != 0 && opts.Ranks != opts.Comm.Size() {
			return TrainResult{}, fmt.Errorf("zeroinf: Ranks %d disagrees with the communicator's world size %d", opts.Ranks, opts.Comm.Size())
		}
		opts.Ranks = opts.Comm.Size()
	}
	if opts.Ranks <= 0 || opts.Steps <= 0 || opts.BatchPerRank <= 0 {
		return TrainResult{}, fmt.Errorf("zeroinf: Ranks, Steps, BatchPerRank must be positive")
	}
	if opts.DataSeed == 0 {
		opts.DataSeed = 1
	}
	var world *World
	if opts.Comm == nil {
		// The fabric is the world's: Engine.Topology and the codec half of
		// Engine.Backend are fixed here, before any rank runs.
		be, err := tensor.ByName(opts.Engine.Backend)
		if err != nil {
			return TrainResult{}, err
		}
		world, err = comm.New(WorldOptions{Size: opts.Ranks, Topology: opts.Engine.Topology, CodecBackend: be})
		if err != nil {
			return TrainResult{}, err
		}
	}
	startStep := 0
	var set *ckpt.Set
	if opts.Resume && opts.Engine.CheckpointDir != "" {
		s, err := ckpt.LatestComplete(opts.Engine.CheckpointDir)
		var invalid *ckpt.InvalidGenerationsError
		switch {
		case err == nil:
			if s.Manifest.World != opts.Ranks {
				return TrainResult{}, fmt.Errorf("zeroinf: checkpoint %s holds world size %d, training with %d ranks",
					s.Dir, s.Manifest.World, opts.Ranks)
			}
			set = s
			startStep = s.Manifest.Step
		case errors.As(err, &invalid):
			// A cold start would train over the generations and overwrite
			// them; they may be all that is left of the run.
			return TrainResult{}, fmt.Errorf("zeroinf: resume: %w", err)
		case errors.Is(err, ckpt.ErrNoCheckpoint):
			// No generation on disk: cold start.
		default:
			return TrainResult{}, err
		}
	}
	var writer *ckpt.Writer
	if opts.Engine.CheckpointDir != "" && opts.Engine.CheckpointEvery > 0 {
		wopts := ckpt.WriterOptions{}
		if opts.ckptWriter != nil {
			wopts = *opts.ckptWriter
		}
		wopts.World = opts.Ranks
		w, err := ckpt.NewWriter(opts.Engine.CheckpointDir, wopts)
		if err != nil {
			return TrainResult{}, err
		}
		writer = w
	}
	var (
		mu       sync.Mutex
		res      TrainResult
		firstErr error
	)
	res.StartStep = startStep
	res.FinalStep = startStep
	if set != nil {
		res.ResumeSkipped = set.Skipped
	}
	body := func(c *Comm) {
		fail := func(err error) {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}
		g, err := NewModel(opts.Model)
		if err != nil {
			fail(err)
			return
		}
		e, err := NewEngine(opts.Engine, c, g)
		if err != nil {
			fail(err)
			return
		}
		defer e.Close()
		if set != nil {
			rs, ok := e.(RankState)
			if !ok {
				fail(fmt.Errorf("zeroinf: engine %T does not implement RankState", e))
				return
			}
			rc, err := set.OpenRank(c.Rank())
			if err != nil {
				fail(err)
				return
			}
			err = rs.LoadRankState(rc)
			rc.Close()
			if err != nil {
				fail(fmt.Errorf("zeroinf: rank %d resume from %s: %w", c.Rank(), set.Dir, err))
				return
			}
		}
		accum := opts.GradAccumSteps
		if accum < 1 {
			accum = 1
		}
		var (
			losses  []float64
			pending []*ckpt.Ticket
		)
		step := startStep
		snapped := startStep
		for s := startStep; s < opts.Steps; s++ {
			if opts.Stop != nil {
				// Stop consensus: every rank sees the same verdict at the
				// same step boundary, so all take the same final snapshot.
				stop := 0.0
				select {
				case <-opts.Stop:
					stop = 1
				default:
				}
				if c.AllReduceScalar(stop) != 0 {
					break
				}
			}
			microTok := make([][]int, accum)
			microTgt := make([][]int, accum)
			for m := 0; m < accum; m++ {
				seed := opts.DataSeed + uint64(s*1000+m*100000+c.Rank())
				microTok[m], microTgt[m] = SyntheticBatch(seed, opts.Model, opts.BatchPerRank)
			}
			sr, err := e.StepAccum(microTok, microTgt, opts.BatchPerRank)
			if err != nil {
				fail(fmt.Errorf("rank %d step %d: %w", c.Rank(), s, err))
				return
			}
			losses = append(losses, sr.Loss)
			if c.Rank() == 0 && opts.OnStep != nil {
				opts.OnStep(s, sr)
			}
			step = s + 1
			if writer != nil && step%opts.Engine.CheckpointEvery == 0 {
				if pending, err = snapshotRank(writer, e, c, step, pending); err != nil {
					fail(err)
					return
				}
				snapped = step
			}
		}
		if writer != nil && step > snapped {
			// Final snapshot: clean shutdown (Stop) or a step count that is
			// not a multiple of CheckpointEvery.
			if pending, err = snapshotRank(writer, e, c, step, pending); err != nil {
				fail(err)
				return
			}
		}
		for _, t := range pending {
			t.Wait()
		}
		if c.Rank() == 0 || opts.Comm != nil {
			mu.Lock()
			res.Losses = losses
			res.FinalStep = step
			if se, ok := e.(interface{ Stats() InfinityStats }); ok {
				res.Stats = se.Stats()
			}
			mu.Unlock()
		}
	}
	if opts.Comm != nil {
		body(opts.Comm)
	} else {
		world.Run(body)
	}
	if writer != nil {
		res.CheckpointErr = writer.Drain()
		if cerr := writer.Close(); res.CheckpointErr == nil {
			res.CheckpointErr = cerr
		}
	}
	return res, firstErr
}
