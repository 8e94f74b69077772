// Package cliconfig centralizes the engine/fabric flag surface shared by
// the zinf command-line tools that build engines (zinf-train, zinf-launch),
// so a flag's name, default, and help text are defined once, and provides the
// JSON wire form of a resolved training configuration — how zinf-launch
// ships an EngineConfig to its worker processes.
package cliconfig

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"strings"

	zeroinf "repro"
)

// Common is the flag block shared by every tool that builds engines:
// compute backend, fabric topology, parameter partitioning,
// overlap/prefetch, and memory-centric tiling.
type Common struct {
	Backend   string
	Topology  string
	Partition string
	Prefetch  int
	Overlap   bool
	Tiling    int
}

// CommonDefaults returns the shared defaults.
func CommonDefaults() Common {
	return Common{Backend: "reference", Partition: "slice", Prefetch: 2, Overlap: true, Tiling: 1}
}

// AddCommon registers the shared flags on fs, with c's current values as
// defaults; fs.Parse fills c.
func AddCommon(fs *flag.FlagSet, c *Common) {
	fs.StringVar(&c.Backend, "backend", c.Backend,
		"compute backend: "+strings.Join(zeroinf.Backends(), "|")+" (bit-identical, parallel uses all cores)")
	fs.StringVar(&c.Topology, "topology", c.Topology,
		"multi-node fabric spec <nodes>x<ranksPerNode>[:intra=GB/s][:inter=GB/s]; "+
			"collectives are charged per link class and achieved aggregate bandwidth is reported (\"\" = flat)")
	fs.StringVar(&c.Partition, "partition", c.Partition,
		"stage-3/infinity parameter partitioning (Fig. 6c): slice (1/dp, all links) | broadcast (owner-rank)")
	fs.IntVar(&c.Prefetch, "prefetch", c.Prefetch,
		"overlap read-ahead depth: NVMe reads (infinity) and, with -overlap, speculative allgathers (zero3/infinity) for the next N trace entries (0 = off; the replicated engines gather nothing and ignore it)")
	fs.BoolVar(&c.Overlap, "overlap", c.Overlap,
		"async collectives: launch every engine's gradient reductions (all-reduces for ddp/zero1, reduce-scatters otherwise) asynchronously and, on zero3/infinity, speculate allgathers -prefetch deep (bit-identical)")
	fs.IntVar(&c.Tiling, "tiling", c.Tiling,
		"memory-centric tiling factor: build qkv/proj/fc1/fc2 and the LM head as N-tile operators (must divide hidden and vocab; 1 = dense)")
}

// Apply validates the shared selections and writes them into cfg: the
// backend name is checked against the registry, the topology spec parsed,
// the partitioning name resolved. Tiling is a model knob and is not
// touched here.
func (c *Common) Apply(cfg *zeroinf.EngineConfig) error {
	if _, err := zeroinf.BackendByName(c.Backend); err != nil {
		return err
	}
	topo, err := zeroinf.ParseTopology(c.Topology)
	if err != nil {
		return err
	}
	part, err := zeroinf.ParsePartitioning(c.Partition)
	if err != nil {
		return err
	}
	cfg.Backend = c.Backend
	cfg.Topology = topo
	cfg.Partition = part
	cfg.PrefetchDepth = c.Prefetch
	cfg.Overlap = c.Overlap
	return nil
}

// EngineFlags extends Common with the engine selection and the
// Infinity-specific placement flags.
type EngineFlags struct {
	Common
	Engine     string
	Params     string
	Opt        string
	NVMeDir    string
	OffloadAct bool
}

// EngineDefaults returns zinf-train's engine flag defaults.
func EngineDefaults() EngineFlags {
	return EngineFlags{Common: CommonDefaults(), Engine: "infinity", Params: "cpu", Opt: "cpu"}
}

// AddEngine registers the engine flags (and the shared block) on fs.
func AddEngine(fs *flag.FlagSet, e *EngineFlags) {
	AddCommon(fs, &e.Common)
	fs.StringVar(&e.Engine, "engine", e.Engine, "ddp | zero1 | zero2 | zero-offload | zero3 | infinity")
	fs.StringVar(&e.Params, "params", e.Params, "infinity fp16 parameter placement: gpu|cpu|nvme")
	fs.StringVar(&e.Opt, "opt", e.Opt, "infinity optimizer placement: gpu|cpu|nvme")
	fs.StringVar(&e.NVMeDir, "nvme-dir", e.NVMeDir, "directory for the file-backed NVMe store")
	fs.BoolVar(&e.OffloadAct, "offload-act", e.OffloadAct, "offload activation checkpoints to CPU (infinity)")
}

// ParsePlacement resolves a tier name to a Placement.
func ParsePlacement(s string) (zeroinf.Placement, error) {
	switch strings.ToLower(s) {
	case "gpu":
		return zeroinf.OnGPU, nil
	case "cpu":
		return zeroinf.OnCPU, nil
	case "nvme":
		return zeroinf.OnNVMe, nil
	}
	return zeroinf.OnGPU, fmt.Errorf("unknown placement %q (gpu|cpu|nvme)", s)
}

// EngineConfig resolves the full engine selection into base — which carries
// the fields this flag block does not own (loss scaling, seed, clipping,
// checkpointing) — and returns the completed config.
func (e *EngineFlags) EngineConfig(base zeroinf.EngineConfig) (zeroinf.EngineConfig, error) {
	cfg := base
	if err := e.Apply(&cfg); err != nil {
		return cfg, err
	}
	switch e.Engine {
	case "ddp":
		cfg.Stage = zeroinf.StageDDP
	case "zero1":
		cfg.Stage = zeroinf.Stage1
	case "zero2":
		cfg.Stage = zeroinf.Stage2
	case "zero-offload":
		cfg.Stage = zeroinf.Stage2
		cfg.OffloadOptimizer = true
	case "zero3":
		cfg.Stage = zeroinf.Stage3
	case "infinity":
		cfg.Infinity = true
		cfg.OffloadActivations = e.OffloadAct
		cfg.NVMeDir = e.NVMeDir
		var err error
		if cfg.Params, err = ParsePlacement(e.Params); err != nil {
			return cfg, err
		}
		if cfg.Optimizer, err = ParsePlacement(e.Opt); err != nil {
			return cfg, err
		}
	default:
		return cfg, fmt.Errorf("unknown engine %q", e.Engine)
	}
	return cfg, nil
}

// TrainFlags is the full zinf-train / zinf-launch flag surface: engine
// selection plus the model shape and run length.
type TrainFlags struct {
	EngineFlags
	Ranks, Steps, Batch, Accum   int
	Vocab, Hidden, Layers, Heads int
	Seq                          int
	Ckpt                         bool
	Scale                        float64
	Seed                         uint64
	Clip                         float64
}

// TrainDefaults returns zinf-train's historical defaults.
func TrainDefaults() TrainFlags {
	return TrainFlags{
		EngineFlags: EngineDefaults(),
		Ranks:       4, Steps: 20, Batch: 2, Accum: 1,
		Vocab: 64, Hidden: 64, Layers: 2, Heads: 4, Seq: 16,
		Scale: 1024, Seed: 42,
	}
}

// AddTrain registers the training flags (and the engine + shared blocks) on
// fs.
func AddTrain(fs *flag.FlagSet, t *TrainFlags) {
	AddEngine(fs, &t.EngineFlags)
	fs.IntVar(&t.Ranks, "ranks", t.Ranks, "data-parallel ranks (goroutine GPUs, or worker processes under zinf-launch)")
	fs.IntVar(&t.Steps, "steps", t.Steps, "training steps")
	fs.IntVar(&t.Batch, "batch", t.Batch, "batch per rank")
	fs.IntVar(&t.Accum, "accum", t.Accum, "gradient accumulation micro-batches per step")
	fs.IntVar(&t.Vocab, "vocab", t.Vocab, "vocabulary size")
	fs.IntVar(&t.Hidden, "hidden", t.Hidden, "hidden dimension")
	fs.IntVar(&t.Layers, "layers", t.Layers, "transformer layers")
	fs.IntVar(&t.Heads, "heads", t.Heads, "attention heads")
	fs.IntVar(&t.Seq, "seq", t.Seq, "sequence length")
	fs.BoolVar(&t.Ckpt, "ckpt", t.Ckpt, "activation checkpointing")
	fs.Float64Var(&t.Scale, "loss-scale", t.Scale, "initial loss scale")
	fs.Uint64Var(&t.Seed, "seed", t.Seed, "init seed")
	fs.Float64Var(&t.Clip, "clip", t.Clip, "global gradient-norm clip (0 = off)")
}

// ModelConfig builds the model shape from the flags.
func (t *TrainFlags) ModelConfig() zeroinf.ModelConfig {
	return zeroinf.ModelConfig{
		Vocab: t.Vocab, Hidden: t.Hidden, Layers: t.Layers, Heads: t.Heads, Seq: t.Seq,
		CheckpointActivations: t.Ckpt || t.OffloadAct,
		Tiling:                t.Tiling,
	}
}

// WorkerSpec is the complete training recipe zinf-launch ships to each
// worker process (as JSON in the ZINF_CONFIG environment variable): the
// resolved engine config plus everything else a rank needs to reproduce
// the exact trajectory.
type WorkerSpec struct {
	Model          zeroinf.ModelConfig
	Engine         zeroinf.EngineConfig
	Steps          int
	BatchPerRank   int
	GradAccumSteps int
	DataSeed       uint64
}

// WorkerSpec resolves the flags into the shippable spec.
func (t *TrainFlags) WorkerSpec() (WorkerSpec, error) {
	ecfg, err := t.EngineConfig(zeroinf.EngineConfig{
		LossScale: t.Scale, DynamicLossScale: true, Seed: t.Seed, ClipNorm: t.Clip,
	})
	if err != nil {
		return WorkerSpec{}, err
	}
	return WorkerSpec{
		Model:          t.ModelConfig(),
		Engine:         ecfg,
		Steps:          t.Steps,
		BatchPerRank:   t.Batch,
		GradAccumSteps: t.Accum,
	}, nil
}

// MarshalEngineConfig renders cfg as JSON. The encoding round-trips: every
// EngineConfig field is a value type (the Topology pointer's fields
// included), so Unmarshal(Marshal(cfg)) reproduces cfg exactly.
func MarshalEngineConfig(cfg zeroinf.EngineConfig) ([]byte, error) {
	return json.Marshal(cfg)
}

// UnmarshalEngineConfig parses a JSON EngineConfig strictly: unknown fields
// are rejected, so a launcher/worker version skew fails loudly instead of
// silently dropping a knob that changes the trajectory.
func UnmarshalEngineConfig(data []byte) (zeroinf.EngineConfig, error) {
	var cfg zeroinf.EngineConfig
	err := strictUnmarshal(data, &cfg)
	return cfg, err
}

// MarshalWorkerSpec renders the spec as JSON for ZINF_CONFIG.
func MarshalWorkerSpec(spec WorkerSpec) ([]byte, error) {
	return json.Marshal(spec)
}

// UnmarshalWorkerSpec parses a JSON WorkerSpec strictly (see
// UnmarshalEngineConfig).
func UnmarshalWorkerSpec(data []byte) (WorkerSpec, error) {
	var spec WorkerSpec
	err := strictUnmarshal(data, &spec)
	return spec, err
}

func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("cliconfig: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("cliconfig: trailing data after JSON document")
	}
	return nil
}
