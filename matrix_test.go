// TestConfigMatrix is the repository's bit-identity oracle. ZeRO-Infinity's
// placement, partitioning, overlap and tiling change where bytes live and
// when they move, never the math, so every engine configuration must train
// exactly as plain data parallelism does. The test generates configurations
// as cells over the axes below — a constraint-aware covering array plus the
// pinned legacyRows — trains each for matrixSteps steps and compares it, bit
// for bit, with a cached DDP oracle. A cell the product cannot build must be
// refused at construction with the error its rule names.
//
// A cell's name reproduces it: go test -run 'TestConfigMatrix/<name>' .
// -matrix.strength=3 covers every triple of axis values instead of every
// pair.
package zeroinf_test

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/module"
	"repro/internal/tensor"
	"repro/internal/zero"
)

var matrixStrength = flag.Int("matrix.strength", 2,
	"TestConfigMatrix covers every combination of this many axis values (2 = all pairs)")

// The axes of a cell. Value 0 of each is the oracle's.
const (
	axStage = iota
	axPart
	axParams
	axOpt
	axStore
	axOverlap
	axPrefetch
	axTiling
	axCkpt
	axMicro
	axClip
	axScale
	axWorld
	axTopo
	axTransport
	axKernels
	axArena
	nAxes
)

var axes = [nAxes]struct {
	name   string
	values []string
}{
	axStage:     {"stage", []string{"ddp", "z1", "z2", "zoff", "z3", "inf"}},
	axPart:      {"partition", []string{"slice", "bcast"}},
	axParams:    {"params", []string{"gpu", "cpu", "nvme"}},
	axOpt:       {"optimizer", []string{"gpu", "cpu", "nvme"}},
	axStore:     {"store", []string{"mem", "file"}},
	axOverlap:   {"overlap", []string{"sync", "ov"}},
	axPrefetch:  {"prefetch", []string{"pf0", "pf2", "pf8"}},
	axTiling:    {"tiling", []string{"t1", "t2"}},
	axCkpt:      {"checkpointing", []string{"none", "ckpt", "ckpt-cpu"}},
	axMicro:     {"micro-batches", []string{"mb1", "mb2"}},
	axClip:      {"clip", []string{"noclip", "clip"}},
	axScale:     {"loss scale", []string{"static", "dyn"}},
	axWorld:     {"world", []string{"w1", "w3", "w4"}},
	axTopo:      {"topology", []string{"flat", "2x2"}},
	axTransport: {"transport", []string{"chan", "sock"}},
	axKernels:   {"kernels", []string{"ref", "par1", "par2", "par"}},
	axArena:     {"arena", []string{"arena", "heap"}},
}

// Value indices the rules and the engine builder name.
const (
	stageZOff, stageZ3, stageInf = 3, 4, 5
	onNVMe                       = 2
	ckptOffload                  = 2
	world4                       = 2
)

// What the value indices configure. zoff is Stage2 with the optimizer
// offloaded; inf is built by core.NewInfinityEngine.
var (
	stages     = []zero.Stage{zero.StageDDP, zero.Stage1, zero.Stage2, zero.Stage2, zero.Stage3}
	placements = []zero.Placement{zero.OnGPU, zero.OnCPU, zero.OnNVMe}
	depths     = []int{0, 2, 8} // 8 is above the NVMe ring's read-ahead cap
	worldSizes = []int{1, 3, 4}
	kernels    = []func() tensor.Backend{tensor.Reference,
		sync.OnceValue(func() tensor.Backend { return tensor.NewParallel(1) }),
		sync.OnceValue(func() tensor.Backend { return tensor.NewParallel(2) }),
		tensor.Parallel}
)

// cell is one configuration: a value index per axis, -1 while unset.
type cell [nAxes]int8

func (c *cell) set(a int) bool { return c[a] >= 0 }
func (c *cell) sharded() bool  { return c[axStage] == stageZ3 || c[axStage] == stageInf }
func (c *cell) ranks() int     { return worldSizes[c[axWorld]] }

// rules are the generator's constraints, evaluated on partial cells: bad
// reports a violation among the axes already set. Breaking a rule with no
// err leaves no configuration (the axis value means nothing there); breaking
// one with an err is a configuration the product must refuse at
// construction with that error, and the matrix runs such cells to see that
// it does.
var rules = []struct {
	bad func(c *cell) bool
	err func(c cell) string
}{
	// Owner-rank partitioning and gather prefetch act on partitioned
	// parameters (ZeRO-3 and Infinity).
	{bad: func(c *cell) bool { return c.set(axStage) && !c.sharded() && (c[axPart] > 0 || c[axPrefetch] > 0) }},
	// Placements and activation-checkpoint offload are Infinity's.
	{bad: func(c *cell) bool {
		return c.set(axStage) && c[axStage] != stageInf && (c[axParams] > 0 || c[axOpt] > 0 || c[axCkpt] == ckptOffload)
	}},
	// A store backs NVMe-placed state only.
	{bad: func(c *cell) bool {
		return c[axStore] > 0 && c.set(axParams) && c.set(axOpt) && c[axParams] != onNVMe && c[axOpt] != onNVMe
	}},
	// comm.New refuses a 2x2 fabric on other than four ranks.
	{
		bad: func(c *cell) bool { return c[axTopo] > 0 && c.set(axWorld) && c[axWorld] != world4 },
		err: func(c cell) string { return fmt.Sprintf("world size %d not a multiple of node size 2", c.ranks()) },
	},
}

// rejected cells break only error rules; each must fail with its error.
var rejected = []string{"z3/w1-2x2", "z3/w3-2x2", "ddp/w3-2x2/sock", "inf/nvme-nvme/w1-2x2/sock"}

// valid reports whether the set axes break no rule (trainable so far).
func (c *cell) valid() bool {
	for _, r := range rules {
		if r.bad(c) {
			return false
		}
	}
	return true
}

// rejection is the error construction must return, "" for a trainable cell.
func (c cell) rejection() string {
	for _, r := range rules {
		if r.bad(&c) && r.err != nil {
			return r.err(c)
		}
	}
	return ""
}

// completable reports whether the unset axes can be filled so c breaks no
// rule.
func (c cell) completable() bool {
	if !c.valid() {
		return false
	}
	for a := range c {
		if !c.set(a) {
			for v := range axes[a].values {
				if c[a] = int8(v); c.completable() {
					return true
				}
			}
			return false
		}
	}
	return true
}

func unset() (c cell) {
	for a := range c {
		c[a] = -1
	}
	return c
}

// name is the cell's stable test name: the stage, then every non-oracle
// value in axis order, with Infinity's placement and the world size always.
func (c cell) name() string {
	parts := []string{axes[axStage].values[c[axStage]]}
	for a := axPart; a < nAxes; a++ {
		switch {
		case a == axParams && c[axStage] == stageInf:
			parts = append(parts, axes[axParams].values[c[axParams]]+"-"+axes[axOpt].values[c[axOpt]])
		case a == axWorld:
			w := axes[axWorld].values[c[axWorld]]
			if c[axTopo] > 0 {
				w += "-" + axes[axTopo].values[c[axTopo]]
			}
			parts = append(parts, w)
		case a == axParams || a == axOpt || a == axTopo:
		case c[a] > 0:
			parts = append(parts, axes[a].values[c[a]])
		}
	}
	return strings.Join(parts, "/")
}

// parseCell inverts name.
func parseCell(name string) (cell, error) {
	c := unset()
	for _, tok := range strings.Split(name, "/") {
		a, v := lookupToken(tok)
		switch {
		case a >= 0:
			c[a] = int8(v)
		case strings.Count(tok, "-") == 1 && tok[0] != 'w':
			p, o, _ := strings.Cut(tok, "-")
			c[axParams], c[axOpt] = int8(slices.Index(axes[axParams].values, p)), int8(slices.Index(axes[axOpt].values, o))
		default:
			w, topo, _ := strings.Cut(tok, "-")
			c[axWorld] = int8(slices.Index(axes[axWorld].values, w))
			c[axTopo] = int8(max(0, slices.Index(axes[axTopo].values, topo)))
		}
	}
	for a := range c {
		if !c.set(a) && a != axWorld {
			c[a] = 0
		}
	}
	if !c.set(axWorld) || c.name() != name {
		return c, fmt.Errorf("cell %q does not round-trip (reads as %q)", name, c.name())
	}
	return c, nil
}

// lookupToken finds the axis whose non-oracle value (or stage) is tok.
func lookupToken(tok string) (axis, value int) {
	for a, ax := range axes {
		if a == axParams || a == axOpt || a == axWorld || a == axTopo {
			continue
		}
		if v := slices.Index(ax.values, tok); v > 0 || (v == 0 && a == axStage) {
			return a, v
		}
	}
	return -1, -1
}

// tuples calls f with the key of every strength-way combination of c's
// axis values; with must, only those that include axis must.
func (c cell) tuples(strength, must int, f func(key uint32)) {
	var rec func(from int, key uint32, n int, has bool)
	rec = func(from int, key uint32, n int, has bool) {
		if n == strength {
			if has || must < 0 {
				f(key)
			}
			return
		}
		for a := from; a < nAxes; a++ {
			if c.set(a) {
				rec(a+1, key<<8|uint32(a)<<3|uint32(c[a]), n+1, has || a == must)
			}
		}
	}
	rec(0, 0, 0, false)
}

// allowedTuples lists every strength-way combination of axis values that
// some trainable cell holds.
func allowedTuples(strength int) map[uint32]bool {
	out := make(map[uint32]bool)
	var rec func(c cell, from, n int)
	rec = func(c cell, from, n int) {
		if n == strength {
			if c.completable() {
				c.tuples(strength, -1, func(k uint32) { out[k] = true })
			}
			return
		}
		for a := from; a < nAxes; a++ {
			for v := range axes[a].values {
				c[a] = int8(v)
				rec(c, a+1, n+1)
			}
			c[a] = -1
		}
	}
	rec(unset(), 0, 0)
	return out
}

// coveringArray greedily adds cells to pinned until every allowed tuple is
// held by some cell: each new cell starts from the first uncovered tuple and
// takes, axis by axis, the value completing the most uncovered tuples.
// Ties go to the lower value, and the order is fixed, so it is deterministic.
func coveringArray(strength int, pinned []cell) []cell {
	covered := make(map[uint32]bool)
	mark := func(c cell) { c.tuples(strength, -1, func(k uint32) { covered[k] = true }) }
	for _, c := range pinned {
		mark(c)
	}
	var out []cell
	allowed := allowedTuples(strength)
	keys := make([]uint32, 0, len(allowed))
	for k := range allowed {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		if covered[k] {
			continue
		}
		c := unset()
		for i := 0; i < strength; i++ {
			e := k >> (8 * i) & 0xff
			c[e>>3] = int8(e & 7)
		}
		for a := range c {
			if c.set(a) {
				continue
			}
			best, bestN := -1, -1
			for v := range axes[a].values {
				c[a] = int8(v)
				if !c.completable() {
					continue
				}
				n := 0
				c.tuples(strength, a, func(k uint32) {
					if !covered[k] {
						n++
					}
				})
				if n > bestN {
					best, bestN = v, n
				}
			}
			c[a] = int8(best)
		}
		mark(c)
		out = append(out, c)
	}
	return out
}

// legacyRows pins, for every row of the hand-written bit-identity tables
// this sweep replaced, the cell that covers it. They always run.
var legacyRows = []struct{ row, cell string }{
	{"zero.TestAllStagesBitIdenticalToDDP/ddp", "ddp/w4"},
	{"zero.TestAllStagesBitIdenticalToDDP/zero1", "z1/w4"},
	{"zero.TestAllStagesBitIdenticalToDDP/zero1+overlap", "z1/ov/w4"},
	{"zero.TestAllStagesBitIdenticalToDDP/zero2", "z2/w4"},
	{"zero.TestAllStagesBitIdenticalToDDP/zero2+overlap", "z2/ov/w4"},
	{"zero.TestAllStagesBitIdenticalToDDP/zero-offload", "zoff/w4"},
	{"zero.TestAllStagesBitIdenticalToDDP/zero3", "z3/w4"},
	{"zero.TestAllStagesBitIdenticalToDDP/zero3+overlap", "z3/ov/pf2/w4"},
	{"zero.TestAllStagesBitIdenticalToDDP/zero3+ckpt", "z3/ckpt/w4"},
	{"zero.TestAccumulationBitIdenticalAcrossEngines/zero1", "z1/mb2/w4"},
	{"zero.TestAccumulationBitIdenticalAcrossEngines/zero2", "z2/mb2/w4"},
	{"zero.TestAccumulationBitIdenticalAcrossEngines/zero2+overlap", "z2/ov/mb2/w4"},
	{"zero.TestAccumulationBitIdenticalAcrossEngines/zero3", "z3/mb2/w4"},
	{"zero.TestAccumulationBitIdenticalAcrossEngines/zero3+overlap", "z3/ov/pf2/mb2/w4"},
	{"zero.TestClippingBitIdenticalAndBounded/zero1+clip", "z1/clip/w4"},
	{"zero.TestClippingBitIdenticalAndBounded/zero2+clip", "z2/clip/w4"},
	{"zero.TestClippingBitIdenticalAndBounded/zero3+clip", "z3/clip/w4"},
	{"zero.TestPartitionStrategiesBitIdenticalToDDP/broadcast/sync", "z3/bcast/w4"},
	{"zero.TestPartitionStrategiesBitIdenticalToDDP/broadcast/overlap", "z3/bcast/ov/pf2/w4"},
	{"zero.TestPartitionStrategiesBitIdenticalToDDP/slice/overlap+topology", "z3/ov/pf2/w4-2x2"},
	{"zero.TestPartitionStrategiesBitIdenticalToDDP/broadcast/overlap+topology", "z3/bcast/ov/pf2/w4-2x2"},
	{"zero.TestZ3OverlapBitIdenticalToSync/prefetch-without-overlap", "z3/pf2/w4"},
	{"zero.TestZ3OverlapBitIdenticalToSync/async-reduce", "z3/ov/w4"},
	{"zero.TestZ3OverlapBitIdenticalToSync/prefetch+async-reduce", "z3/ov/pf2/w4"},
	{"zero.TestZ3OverlapBitIdenticalToSync/deep-prefetch", "z3/ov/pf8/w4"},
	{"zero.TestZ3OverlapGradAccumBitIdentical", "z3/ov/pf2/mb2/clip/w4"},
	{"zero.TestZ3OverlapOverflowSkipIdentical", "z3/ov/pf2/dyn/w4"},
	{"zero.TestEnginesBitIdenticalAcrossBackends/ddp/parallel", "ddp/w4/par"},
	{"zero.TestEnginesBitIdenticalAcrossBackends/zero1/parallel", "z1/w4/par"},
	{"zero.TestEnginesBitIdenticalAcrossBackends/zero2/parallel", "z2/w4/par"},
	{"zero.TestEnginesBitIdenticalAcrossBackends/zero3/parallel", "z3/w4/par"},
	{"zero.TestEnginesBitIdenticalAcrossBackends/zero3+ckpt/parallel", "z3/ckpt/w4/par"},
	{"zero.TestArenaMatchesHeapTrajectory/ddp", "ddp/w4/heap"},
	{"zero.TestArenaMatchesHeapTrajectory/zero2", "z2/w4/heap"},
	{"zero.TestArenaMatchesHeapTrajectory/zero3-overlap", "z3/ov/pf2/w4/heap"},
	{"zero.TestArenaMatchesHeapTrajectory/zero3-tiled-ckpt", "z3/t2/ckpt/w4/heap"},
	{"zero.TestSingleRankZ3MatchesDDP", "z3/w1"},
	{"core.TestInfinityPlacementsBitIdenticalToDDP/gpu-gpu", "inf/gpu-gpu/w4"},
	{"core.TestInfinityPlacementsBitIdenticalToDDP/cpu-cpu", "inf/cpu-cpu/w4"},
	{"core.TestInfinityPlacementsBitIdenticalToDDP/cpu-nvme", "inf/cpu-nvme/w4"},
	{"core.TestInfinityPlacementsBitIdenticalToDDP/nvme-nvme", "inf/nvme-nvme/w4"},
	{"core.TestInfinityPlacementsBitIdenticalToDDP/nvme-nvme+prefetch", "inf/nvme-nvme/pf2/w4"},
	{"core.TestInfinityPlacementsBitIdenticalToDDP/nvme-nvme+ckpt-offload", "inf/nvme-nvme/ckpt-cpu/w4"},
	{"core.TestInfinityPlacementsBitIdenticalToDDP/gpu-gpu≡zero3", "inf/gpu-gpu/ov/pf2/w4"},
	{"core.TestInfinityOverlapBitIdenticalToDDP/cpu-cpu+overlap", "inf/cpu-cpu/ov/pf2/w4"},
	{"core.TestInfinityOverlapBitIdenticalToDDP/gpu-gpu+overlap", "inf/gpu-gpu/ov/pf8/w4"},
	{"core.TestInfinityOverlapBitIdenticalToDDP/nvme-nvme+overlap", "inf/nvme-nvme/ov/pf2/w4"},
	{"core.TestInfinityOverlapBitIdenticalToDDP/nvme-nvme+overlap+ckpt-offload", "inf/nvme-nvme/ov/pf2/ckpt-cpu/w4"},
	{"core.TestInfinityOverlapBitIdenticalToDDP/async-reduce-only", "inf/cpu-cpu/ov/w4"},
	{"core.TestPartitionBroadcastBitIdenticalToDDP/gpu-gpu", "inf/bcast/gpu-gpu/w4"},
	{"core.TestPartitionBroadcastBitIdenticalToDDP/cpu-cpu+overlap", "inf/bcast/cpu-cpu/ov/pf2/w4"},
	{"core.TestPartitionBroadcastBitIdenticalToDDP/gpu-gpu+overlap+topology", "inf/bcast/gpu-gpu/ov/pf2/w4-2x2"},
	{"core.TestPartitionBroadcastBitIdenticalToDDP/nvme-nvme+prefetch", "inf/bcast/nvme-nvme/pf2/w4"},
	{"core.TestPartitionBroadcastBitIdenticalToDDP/nvme-nvme+overlap", "inf/bcast/nvme-nvme/ov/pf2/w4"},
	{"core.TestPartitionBroadcastBitIdenticalToDDP/slice+topology", "inf/gpu-gpu/ov/pf2/w4-2x2"},
	{"core.TestTiledModelBitIdenticalAcrossEngines/ddp", "ddp/t2/w4"},
	{"core.TestTiledModelBitIdenticalAcrossEngines/zero1", "z1/t2/w4"},
	{"core.TestTiledModelBitIdenticalAcrossEngines/zero2", "z2/t2/w4"},
	{"core.TestTiledModelBitIdenticalAcrossEngines/zero-offload", "zoff/t2/w4"},
	{"core.TestTiledModelBitIdenticalAcrossEngines/zero3", "z3/t2/w4"},
	{"core.TestTiledModelBitIdenticalAcrossEngines/zero3-overlap", "z3/ov/pf2/t2/w4"},
	{"core.TestTiledModelBitIdenticalAcrossEngines/infinity-cpu", "inf/cpu-cpu/t2/w4"},
	{"core.TestTiledModelBitIdenticalAcrossEngines/infinity-nvme", "inf/nvme-nvme/pf2/t2/w4"},
	{"core.TestTiledModelBitIdenticalAcrossEngines/infinity-nvme-overlap", "inf/nvme-nvme/ov/pf2/t2/w4"},
	{"core.TestAccumulationMatchesDDPAcrossPlacements/cpu", "inf/cpu-cpu/mb2/w4"},
	{"core.TestAccumulationMatchesDDPAcrossPlacements/nvme", "inf/nvme-nvme/pf2/mb2/w4"},
	{"core.TestInfinityArenaMatchesHeapTrajectory/gpu-gpu", "inf/gpu-gpu/w4/heap"},
	{"core.TestInfinityArenaMatchesHeapTrajectory/nvme-nvme+overlap", "inf/nvme-nvme/ov/pf2/w4/heap"},
	{"core.TestInfinityArenaMatchesHeapTrajectory/cpu-cpu+ckpt-offload", "inf/cpu-cpu/ckpt-cpu/w4/heap"},
	{"TestSockTransportTrainsBitIdentical/ddp", "ddp/dyn/w4/sock"},
	{"TestSockTransportTrainsBitIdentical/ddp-overlap-accum2", "ddp/ov/mb2/dyn/w4/sock"},
	{"TestSockTransportTrainsBitIdentical/zero1", "z1/dyn/w4/sock"},
	{"TestSockTransportTrainsBitIdentical/zero2-overlap", "z2/ov/dyn/w4/sock"},
	{"TestSockTransportTrainsBitIdentical/zero2-overlap-accum2", "z2/ov/mb2/dyn/w4/sock"},
	{"TestSockTransportTrainsBitIdentical/z3-slice-overlap", "z3/ov/pf2/dyn/w4/sock"},
	{"TestSockTransportTrainsBitIdentical/z3-broadcast", "z3/bcast/dyn/w4/sock"},
	{"TestSockTransportTrainsBitIdentical/infinity-overlap-prefetch", "inf/cpu-cpu/ov/pf2/dyn/w4/sock"},
	{"TestSockTransportTrainsBitIdentical/z3-hier-topology", "z3/ov/pf2/dyn/w4-2x2/sock"},
}

const (
	matrixSteps = 4
	killAt      = 2 // every rank saves its state after this many steps
	matrixBatch = 2
	matrixClip  = 0.05    // binds on this model
	dynScale    = 1 << 18 // overflows for the first steps, then trains
	cellTimeout = 60 * time.Second
)

var matrixModel = model.Config{Vocab: 16, Hidden: 16, Heads: 2, Seq: 6, Layers: 2}

// matrixEngine is what both engine constructors return.
type matrixEngine interface {
	StepAccum(microTokens, microTargets [][]int, batchPerMicro int) (zero.StepResult, error)
	CheckIdle() error
	FullParams() map[string][]float32
	SaveRankState(w io.Writer) error
	LoadRankState(r io.Reader) error
	Stats() zero.Stats
	Runtime() *module.Runtime
	Close()
}

// engine builds c's engine for one rank.
func (c cell) engine(cm *comm.Comm, nvmeDir string) (matrixEngine, error) {
	mcfg := matrixModel
	mcfg.Tiling = 1 + int(c[axTiling])
	mcfg.CheckpointActivations = c[axCkpt] > 0
	g, err := model.NewGPT(mcfg)
	if err != nil {
		return nil, err
	}
	scale, clip := 256.0, 0.0
	if c[axScale] > 0 {
		scale = dynScale
	}
	if c[axClip] > 0 {
		clip = matrixClip
	}
	part := zero.Partitioning(c[axPart])
	var e matrixEngine
	if c[axStage] == stageInf {
		if c[axStore] == 0 {
			nvmeDir = ""
		}
		e, err = core.NewInfinityEngine(core.Config{
			Params: placements[c[axParams]], Optimizer: placements[c[axOpt]],
			OffloadActivations: c[axCkpt] == ckptOffload, NVMeDir: nvmeDir,
			PrefetchDepth: depths[c[axPrefetch]], Overlap: c[axOverlap] > 0,
			LossScale: scale, DynamicLossScale: c[axScale] > 0, Seed: 42, ClipNorm: clip,
			Backend: kernels[c[axKernels]](), Partition: part,
		}, cm, g)
	} else {
		e, err = zero.NewShardedEngine(zero.Config{
			Stage: stages[c[axStage]], OffloadOptimizer: c[axStage] == stageZOff,
			PrefetchDepth: depths[c[axPrefetch]], Overlap: c[axOverlap] > 0,
			LossScale: scale, DynamicLossScale: c[axScale] > 0, Seed: 42, ClipNorm: clip,
			Backend: kernels[c[axKernels]](), Partition: part,
		}, cm, g, zero.Attachments{})
	}
	if err != nil {
		return nil, err
	}
	if c[axArena] > 0 {
		e.Runtime().SetStepArena(nil)
	}
	return e, nil
}

// oracleKey is the DDP configuration c must reproduce: the axes that change
// the math kept, every other axis at its oracle value.
func (c cell) oracleKey() cell {
	var k cell
	for _, a := range []int{axTiling, axMicro, axClip, axScale, axWorld} {
		k[a] = c[a]
	}
	return k
}

// rankRun is what one rank observed.
type rankRun struct {
	steps []zero.StepResult
	final map[string][]float32
	state []byte // SaveRankState after killAt steps (uninterrupted runs)
	stats zero.Stats
}

// matrix holds what the cells share: oracles, state files, socket worlds.
type matrix struct {
	mu      sync.Mutex
	oracles map[cell][]rankRun
	states  map[cell][][]byte
	// sock holds the socket worlds by (world size, topology) and sockComms
	// one communicator per rank, kept so sequence numbers carry over.
	sock      map[[2]int8][]*comm.World
	sockComms map[[2]int8][]*comm.Comm
}

// batchFor is rank's micro-batch m of step s.
func batchFor(s, m, rank int) (tok, tgt []int) {
	return model.SyntheticBatch(tensor.NewRNG(uint64(1000+100*s+10*m+rank)), matrixModel, matrixBatch)
}

// comms returns communicators for c's world: a fresh in-memory world, or
// the socket worlds built once per (world size, topology). World
// construction is where a topology is refused.
func (mx *matrix) comms(c cell) ([]*comm.Comm, error) {
	topo := []*comm.Topology{nil, {Nodes: 2, NodeSize: 2}}[c[axTopo]]
	if c[axTransport] == 0 {
		w, err := comm.New(comm.WorldOptions{Size: c.ranks(), Topology: topo, CodecBackend: kernels[c[axKernels]]()})
		if err != nil {
			return nil, err
		}
		cms := make([]*comm.Comm, c.ranks())
		for r := range cms {
			cms[r] = w.Comm(r)
		}
		return cms, nil
	}
	mx.mu.Lock()
	defer mx.mu.Unlock()
	key := [2]int8{c[axWorld], c[axTopo]}
	if mx.sock[key] == nil {
		worlds, err := dialSockWorlds(c.ranks(), comm.WorldOptions{Topology: topo, CodecBackend: tensor.Parallel()})
		if err != nil {
			return nil, err
		}
		mx.sock[key] = worlds
		mx.sockComms[key] = make([]*comm.Comm, len(worlds))
		for r, w := range worlds {
			mx.sockComms[key][r] = w.Comm(r)
		}
	}
	return mx.sockComms[key], nil
}

// dropSock forgets c's socket worlds after a failure left their ranks out
// of step; the next socket cell dials fresh ones.
func (mx *matrix) dropSock(c cell) {
	mx.mu.Lock()
	defer mx.mu.Unlock()
	key := [2]int8{c[axWorld], c[axTopo]}
	closeWorlds(mx.sock[key])
	delete(mx.sock, key)
	delete(mx.sockComms, key)
}

// train runs c on every rank: from step 0 saving state at killAt, or, given
// states, as a fresh engine set that loads them and finishes. A rank's
// panic, error or CheckIdle failure fails the run at once, and so does
// passing the deadline; the ranks still blocked are abandoned.
func (mx *matrix) train(c cell, states [][]byte, nvmeDir string, deadline time.Time) (out []rankRun, err error) {
	cms, err := mx.comms(c)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil && c[axTransport] > 0 {
			mx.dropSock(c)
		}
	}()
	out = make([]rankRun, len(cms))
	done := make(chan error, len(cms))
	for _, cm := range cms {
		go func() {
			defer func() {
				if p := recover(); p != nil {
					done <- fmt.Errorf("rank %d panicked: %v\n%s", cm.Rank(), p, debug.Stack())
				}
			}()
			done <- c.trainRank(cm, &out[cm.Rank()], states, nvmeDir)
		}()
	}
	timeout := time.NewTimer(time.Until(deadline))
	defer timeout.Stop()
	for range cms {
		select {
		case err := <-done:
			if err != nil {
				return nil, err
			}
		case <-timeout.C:
			return nil, fmt.Errorf("hung: ranks still running after %v", cellTimeout)
		}
	}
	return out, nil
}

func (c cell) trainRank(cm *comm.Comm, r *rankRun, states [][]byte, nvmeDir string) error {
	e, err := c.engine(cm, nvmeDir)
	if err != nil {
		return err
	}
	defer e.Close()
	from := 0
	if states != nil {
		if err := e.LoadRankState(bytes.NewReader(states[cm.Rank()])); err != nil {
			return fmt.Errorf("rank %d: %w", cm.Rank(), err)
		}
		from = killAt
	}
	tok, tgt := make([][]int, 1+c[axMicro]), make([][]int, 1+c[axMicro])
	for s := from; s < matrixSteps; s++ {
		for m := range tok {
			tok[m], tgt[m] = batchFor(s, m, cm.Rank())
		}
		res, err := e.StepAccum(tok, tgt, matrixBatch)
		if err == nil {
			err = e.CheckIdle()
		}
		if err != nil {
			return fmt.Errorf("rank %d step %d: %w", cm.Rank(), s, err)
		}
		r.steps = append(r.steps, res)
		if s+1 == killAt && states == nil {
			var b bytes.Buffer
			if err := e.SaveRankState(&b); err != nil {
				return err
			}
			r.state = b.Bytes()
		}
	}
	r.final, r.stats = e.FullParams(), e.Stats()
	return nil
}

// oracle returns the cached DDP run c must reproduce, checking on first use
// what the oracle itself must show: a dynamic scale skips some steps and
// takes others, and the clip binds (the clipped oracle differs from the
// unclipped one).
func (mx *matrix) oracle(t *testing.T, c cell, deadline time.Time) []rankRun {
	k := c.oracleKey()
	mx.mu.Lock()
	want, ok := mx.oracles[k]
	mx.mu.Unlock()
	if ok {
		return want
	}
	want, err := mx.train(k, nil, "", deadline)
	if err != nil {
		t.Fatalf("oracle %s: %v", k.name(), err)
	}
	if k[axScale] > 0 {
		skipped := 0
		for _, s := range want[0].steps {
			if s.Skipped {
				skipped++
			}
		}
		if skipped == 0 || skipped == matrixSteps {
			t.Fatalf("oracle %s: a dynamic scale from %d skipped %d of %d steps; it must skip some and take some",
				k.name(), dynScale, skipped, matrixSteps)
		}
	}
	if k[axClip] > 0 {
		unclipped := k
		unclipped[axClip] = 0
		if sameRun(mx.oracle(t, unclipped, deadline), want, 0) == nil {
			t.Fatalf("oracle %s: clipping at %g left the trajectory unchanged", k.name(), matrixClip)
		}
	}
	mx.mu.Lock()
	mx.oracles[k] = want
	mx.mu.Unlock()
	return want
}

// sameRun compares got (from step from on) with want bit for bit, rank by
// rank: every step's loss, skip and scale, and the final weights.
func sameRun(want, got []rankRun, from int) error {
	for r := range want {
		if len(got[r].steps) != matrixSteps-from {
			return fmt.Errorf("rank %d ran %d steps, want %d", r, len(got[r].steps), matrixSteps-from)
		}
		for i, g := range got[r].steps {
			w := want[r].steps[from+i]
			if math.Float64bits(g.Loss) != math.Float64bits(w.Loss) || g.Skipped != w.Skipped ||
				math.Float64bits(g.LossScale) != math.Float64bits(w.LossScale) {
				return fmt.Errorf("rank %d step %d: loss %.17g skipped %v scale %g, want %.17g %v %g",
					r, from+i, g.Loss, g.Skipped, g.LossScale, w.Loss, w.Skipped, w.LossScale)
			}
		}
		if len(got[r].final) != len(want[r].final) {
			return fmt.Errorf("rank %d: %d parameters, want %d", r, len(got[r].final), len(want[r].final))
		}
		for name, wv := range want[r].final {
			gv := got[r].final[name]
			if len(gv) != len(wv) {
				return fmt.Errorf("rank %d: parameter %s has %d values, want %d", r, name, len(gv), len(wv))
			}
			for i := range wv {
				if math.Float32bits(gv[i]) != math.Float32bits(wv[i]) {
					return fmt.Errorf("rank %d: %s[%d] = %#x, want %#x", r, name, i, math.Float32bits(gv[i]), math.Float32bits(wv[i]))
				}
			}
		}
	}
	return nil
}

// check runs one cell and asserts everything it must show.
func (mx *matrix) check(t *testing.T, c cell) {
	deadline := time.Now().Add(cellTimeout)
	dir := ""
	if c[axStore] > 0 {
		dir = t.TempDir()
	}
	if want := c.rejection(); want != "" {
		if _, err := mx.train(c, nil, dir, deadline); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("construction returned %v, want an error containing %q", err, want)
		}
		return
	}
	want := mx.oracle(t, c, deadline)
	got, err := mx.train(c, nil, dir, deadline)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameRun(want, got, 0); err != nil {
		t.Fatalf("differs from oracle %s: %v", c.oracleKey().name(), err)
	}
	states := make([][]byte, len(got))
	for r := range got {
		states[r] = got[r].state
	}
	resumed, err := mx.train(c, states, dir, deadline)
	if err != nil {
		t.Fatalf("resume at step %d: %v", killAt, err)
	}
	if err := sameRun(got, resumed, killAt); err != nil {
		t.Fatalf("resumed at step %d: %v", killAt, err)
	}

	// Cells that differ only in axes that move bytes save the same state.
	sk := c.oracleKey()
	for _, a := range []int{axStage, axPart, axParams, axOpt} {
		sk[a] = c[a]
	}
	mx.mu.Lock()
	first, seen := mx.states[sk]
	if !seen {
		mx.states[sk] = states
	}
	mx.mu.Unlock()
	for r := range first {
		if !bytes.Equal(first[r], states[r]) {
			t.Fatalf("rank %d saved %d bytes of state, unlike an earlier cell of the same stage and placement (%d bytes)",
				r, len(states[r]), len(first[r]))
		}
	}

	for r, run := range got {
		if s := run.stats; c.sharded() && c[axOverlap] > 0 && c[axPrefetch] > 0 && s.CommPrefetchHits == 0 {
			t.Errorf("rank %d: no gather served by a speculative one (%d issued)", r, s.CommPrefetchIssued)
		}
	}
	// Infinity with both states on GPU is ZeRO-3: the same gathers,
	// speculation and reductions, not only the same values.
	if c[axStage] == stageInf && c[axParams] == 0 && c[axOpt] == 0 {
		twin := c
		twin[axStage] = stageZ3
		twin[axCkpt] = min(twin[axCkpt], 1)
		z3, err := mx.train(twin, nil, "", deadline)
		if err != nil {
			t.Fatalf("twin %s: %v", twin.name(), err)
		}
		for r := range got {
			a, b := z3[r].stats, got[r].stats
			if a.Gathers != b.Gathers || a.OnDemandGathers != b.OnDemandGathers || a.AsyncReduces != b.AsyncReduces ||
				a.CommPrefetchIssued != b.CommPrefetchIssued || a.CommPrefetchHits != b.CommPrefetchHits ||
				a.MaxLiveParamBytes != b.MaxLiveParamBytes {
				t.Errorf("rank %d did different work than %s:\nzero3    %+v\ninfinity %+v", r, twin.name(), a, b)
			}
		}
	}
}

// TestConfigMatrix trains every cell of the covering array, the legacy rows
// and the rejected cells; see the file comment.
func TestConfigMatrix(t *testing.T) {
	// zero's reduceWindow keeps 4 reductions in flight: the overlap cells
	// fold some inside backward only if a pass launches more than twice that.
	if n := len(module.AllParams(model.MustGPT(matrixModel))); n <= 8 {
		t.Fatalf("the matrix model has %d parameters; the overlap cells need more than 8", n)
	}
	var pinned []cell
	for _, row := range legacyRows {
		c, err := parseCell(row.cell)
		if err != nil || !c.valid() {
			t.Fatalf("legacy row %s: cell %q is not a trainable cell (%v)", row.row, row.cell, err)
		}
		if !slices.Contains(pinned, c) {
			pinned = append(pinned, c)
		}
	}
	cells := append(pinned, coveringArray(*matrixStrength, pinned)...)
	covered := make(map[uint32]bool)
	for _, c := range cells {
		c.tuples(*matrixStrength, -1, func(k uint32) { covered[k] = true })
	}
	allowed := allowedTuples(*matrixStrength)
	uncovered := 0
	for k := range allowed {
		if !covered[k] {
			uncovered++
		}
	}
	if uncovered > 0 {
		t.Fatalf("%d of %d allowed %d-way combinations are in no trainable cell", uncovered, len(allowed), *matrixStrength)
	}
	for _, name := range rejected {
		c, err := parseCell(name)
		if err != nil || c.rejection() == "" {
			t.Fatalf("rejected cell %q does not break an error rule (%v)", name, err)
		}
		cells = append(cells, c)
	}
	t.Logf("%d cells: %d legacy, %d generated, %d rejected; %d allowed %d-way combinations covered, 0 uncovered",
		len(cells), len(pinned), len(cells)-len(pinned)-len(rejected), len(rejected), len(allowed), *matrixStrength)

	mx := &matrix{oracles: map[cell][]rankRun{}, states: map[cell][][]byte{}, sock: map[[2]int8][]*comm.World{}, sockComms: map[[2]int8][]*comm.Comm{}}
	t.Cleanup(func() {
		for _, ws := range mx.sock {
			closeWorlds(ws)
		}
	})
	for _, c := range cells {
		t.Run(c.name(), func(t *testing.T) {
			if c[axTransport] == 0 {
				t.Parallel() // the socket cells share worlds and run first, one at a time
			}
			mx.check(t, c)
		})
	}
}
