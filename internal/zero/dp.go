package zero

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/module"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// DPEngine implements the replicated-parameter family: classic data
// parallelism (StageDDP), ZeRO-1 (partitioned optimizer), ZeRO-2
// (partitioned optimizer + gradients) and ZeRO-Offload (ZeRO-2 with the
// optimizer state and update on CPU). Parameters are always fully resident
// in GPU memory — the limitation ZeRO-3/Infinity removes.
//
// The fp32 optimizer state lives in the sharded engine's store, a Resident
// whose fp16 slots stay empty: each parameter's own Data() is the one
// replicated fp16-valued copy of the weights. Hot-path buffers — padded fp16
// gradient buffers (keyed by padded length through the arena's size
// classes), reduced fp32 gradients, encoded and gathered fp16 parameter
// views — cycle through the Scratch arenas, so steady-state steps stop
// hitting the Go allocator after step 1.
type DPEngine struct {
	cfg    Config
	c      *comm.Comm
	g      Model
	rt     *module.Runtime
	params []*module.Param

	// opt holds each parameter's [master|m|v]: the full vector under DDP,
	// this rank's shard under ZeRO-1/2/Offload.
	opt       *Resident
	stepCount int // optimizer steps applied
	scaler    *optim.LossScaler
	sc        Scratch

	// grads holds the decoded reduced gradients in parameter order, kept
	// between the reduce and update phases.
	grads [][]float32

	// Reused step scratch.
	microTok, microTgt [][]int
	meter              AllocMeter

	// AllocsPerStep is the heap-allocation count of the last step
	// (process-global; see Stats.AllocsPerStep for the same counter on the
	// sharded engine).
	AllocsPerStep uint64

	// CPU-offload traffic accounting (ZeRO-Offload): bytes moved over the
	// GPU<->CPU link per step for gradients down and parameters up.
	BytesToCPU, BytesFromCPU int64
}

// NewDPEngine builds the engine for one rank. Stage must be StageDDP,
// Stage1 or Stage2.
func NewDPEngine(cfg Config, c *comm.Comm, g Model) (*DPEngine, error) {
	cfg.setDefaults()
	if cfg.Stage == Stage3 {
		return nil, fmt.Errorf("zero: DPEngine does not support stage3; use NewZ3Engine")
	}
	e := &DPEngine{
		cfg:    cfg,
		c:      c,
		g:      g,
		params: module.AllParams(g),
		sc:     NewScratch(),
	}
	e.opt = NewResident(len(e.params), cfg.Backend, cfg.Adam, e.sc)
	e.grads = make([][]float32, len(e.params))
	e.rt = module.NewRuntime(nil)
	e.rt.SetBackend(cfg.Backend)
	e.rt.SetStepArena(mem.NewStepArena())
	if cfg.DynamicLossScale {
		e.scaler = optim.NewLossScaler(cfg.LossScale)
	} else {
		e.scaler = optim.StaticLossScaler(cfg.LossScale)
	}
	for i, p := range e.params {
		full := model.InitValues(p, cfg.Seed)
		p.SetData(full)
		p.SetGradScratch(e.sc.F32.Get, e.sc.F32.Put)
		e.place(i, full)
	}
	return e, nil
}

// place stores parameter i's fp32 master — a copy of the full vector under
// DDP, this rank's shard under ZeRO-1/2 — with zeroed moments.
func (e *DPEngine) place(i int, full []float32) {
	if e.cfg.Stage == StageDDP {
		e.opt.PlaceOpt(i, append([]float32(nil), full...))
		return
	}
	shard := make([]float32, comm.ShardLen(len(full), e.c.Size()))
	comm.Shard(shard, full, e.c.Rank(), e.c.Size())
	e.opt.PlaceOpt(i, shard)
}

// Model returns the wrapped model.
func (e *DPEngine) Model() Model { return e.g }

// Runtime returns the engine's hook runtime.
func (e *DPEngine) Runtime() *module.Runtime { return e.rt }

// LossScale returns the current loss scale.
func (e *DPEngine) LossScale() float64 { return e.scaler.Scale }

// Step runs one data-parallel training step on this rank's batch.
//
//zinf:hotpath
func (e *DPEngine) Step(tokens, targets []int, batch int) StepResult {
	tok, tgt := MicroBatch(&e.microTok, &e.microTgt, tokens, targets)
	return e.StepAccum(tok, tgt, batch)
}

// StepAccum runs one training step with gradient accumulation over
// micro-batches: each micro-batch's gradients are reduced across ranks and
// accumulated in fp32 before a single optimizer step — the recipe ZeRO
// engines use (reduce per micro-batch, accumulate the reduced shards), which
// keeps every engine's trajectory bit-identical.
//
//zinf:hotpath
func (e *DPEngine) StepAccum(microTokens, microTargets [][]int, batchPerMicro int) StepResult {
	if len(microTokens) == 0 || len(microTokens) != len(microTargets) {
		panic("zero: StepAccum needs matching non-empty micro-batches")
	}
	e.meter.Begin()
	dp := e.c.Size()
	micros := len(microTokens)
	scaleUsed := e.scaler.Scale

	var lossSum float64
	for m := 0; m < micros; m++ {
		for _, p := range e.params {
			p.Grad()
			p.ZeroGrad()
		}
		// The arena step brackets the micro-batch: reduceMicro only reads
		// engine-arena gradient buffers, so every model activation is dead
		// once it returns and EndStep reclaims them all.
		e.rt.BeginStep()
		lossSum += e.g.ForwardLoss(e.rt, microTokens[m], microTargets[m], batchPerMicro)
		e.g.BackwardLoss(e.rt, float32(scaleUsed))
		e.reduceMicro()
		e.rt.EndStep()
	}
	globalLoss := e.c.AllReduceScalar(lossSum/float64(micros)) / float64(dp)

	if GlobalOverflow(e.c, e.rt.Backend(), e.grads) {
		e.scaler.Update(true)
		for i, g := range e.grads {
			e.sc.F32.Put(g)
			e.grads[i] = nil
		}
		return e.finishStep(StepResult{Loss: globalLoss, Skipped: true, LossScale: e.scaler.Scale})
	}

	inv := 1 / (scaleUsed * float64(dp) * float64(micros))
	for _, g := range e.grads {
		e.rt.Backend().Scale(float32(inv), g)
	}
	if f := e.clipFactor(); f != 1 {
		for _, g := range e.grads {
			e.rt.Backend().Scale(float32(f), g)
		}
	}
	e.stepCount++
	for i, p := range e.params {
		master := e.opt.Apply(e.stepCount, i, e.grads[i])
		e.grads[i] = nil
		if e.cfg.OffloadOptimizer {
			// Updated fp16 shard returns from CPU to GPU before allgather.
			e.BytesFromCPU += int64(len(master)) * tensor.HalfBytes
		}
		e.materialize(p, master)
	}
	e.scaler.Update(false)
	return e.finishStep(StepResult{Loss: globalLoss, LossScale: e.scaler.Scale})
}

// materialize rebuilds p's replicated fp16 weights in p.Data() from its fp32
// master: encoded and decoded in place under DDP; under ZeRO-1/2 a fused
// encode+allgather, in which each rank's master shard is rounded to fp16
// once inside the collective — no intermediate shard buffer.
//
//zinf:hotpath
func (e *DPEngine) materialize(p *module.Param, master []float32) {
	if e.cfg.Stage == StageDDP {
		h := e.sc.F16.Get(len(master))
		e.rt.Backend().EncodeHalf(h, master)
		e.rt.Backend().DecodeHalf(p.Data(), h)
		e.sc.F16.Put(h)
		return
	}
	full := e.sc.F16.Get(len(master) * e.c.Size())
	e.c.AllGatherEncodeHalf(full, master)
	e.rt.Backend().DecodeHalf(p.Data(), full[:p.Len()])
	e.sc.F16.Put(full)
}

// finishStep records the step's process-global allocation count.
//
//zinf:hotpath
func (e *DPEngine) finishStep(res StepResult) StepResult {
	e.AllocsPerStep = e.meter.End()
	return res
}

// reduceMicro reduces the current local gradients in fp16 and accumulates
// the decoded result into e.grads. The padded fp16 buffer is engine-owned
// scratch keyed by padded length (arena size class) rather than a per-call
// allocation.
//
//zinf:hotpath
func (e *DPEngine) reduceMicro() {
	dp := e.c.Size()
	for i, p := range e.params {
		n := p.Len()
		padded := comm.PaddedLen(n, dp)
		gh := e.sc.F16.Get(padded)
		e.rt.Backend().EncodeHalf(gh[:n], p.Grad())
		clear(gh[n:])
		var reduced []float32
		switch e.cfg.Stage {
		case StageDDP, Stage1:
			e.c.AllReduceHalf(gh[:n])
			lo, hi := 0, n
			if e.cfg.Stage == Stage1 {
				// The padded tail was cleared above, so it decodes to zeros.
				lo, hi = comm.ShardRange(n, e.c.Rank(), dp)
			}
			reduced = e.sc.F32.Get(hi - lo)
			e.rt.Backend().DecodeHalf(reduced, gh[lo:hi])
		case Stage2:
			// Fused reduce-scatter+decode: the reduced fp16 shard lands
			// directly as fp32, with no intermediate fp16 shard buffer.
			reduced = e.sc.F32.Get(padded / dp)
			e.c.ReduceScatterHalfDecode(reduced, gh)
			if e.cfg.OffloadOptimizer {
				// Gradient shard moves to CPU for the update.
				e.BytesToCPU += int64(len(reduced)) * tensor.HalfBytes
			}
		}
		e.sc.F16.Put(gh)
		p.ReleaseGrad()
		if acc := e.grads[i]; acc != nil {
			e.rt.Backend().Axpy(1, reduced, acc)
			e.sc.F32.Put(reduced)
		} else {
			e.grads[i] = reduced
		}
	}
}

// clipFactor computes the global-gradient-norm clip multiplier in the
// engine-invariant summation order: rank-major, then parameter-major.
//
//zinf:hotpath
func (e *DPEngine) clipFactor() float64 {
	if e.cfg.ClipNorm <= 0 {
		return 1
	}
	if e.cfg.Stage != StageDDP {
		return GlobalClipFactor(e.c, e.cfg.ClipNorm, e.grads)
	}
	// Replicated gradients: emulate the sharded engines' rank-major
	// accumulation exactly.
	dp := e.c.Size()
	var total float64
	for r := 0; r < dp; r++ {
		var partial float64
		for _, g := range e.grads {
			lo, hi := comm.ShardRange(len(g), r, dp)
			if lo > len(g) {
				lo = len(g)
			}
			if hi > len(g) {
				hi = len(g)
			}
			partial += SumSq(g[lo:hi])
		}
		total += partial
	}
	return ClipFactor(total, e.cfg.ClipNorm)
}

// LoadParams replaces the model weights with the given full fp16-valued
// vectors (keyed by parameter name) and resets the optimizer state — the
// load-pretrained-weights path. Values are rounded through fp16. Every rank
// must call it with identical values.
func (e *DPEngine) LoadParams(values map[string][]float32) error {
	for i, p := range e.params {
		v, ok := values[p.Name]
		if !ok {
			return fmt.Errorf("zero: checkpoint missing parameter %q", p.Name)
		}
		if len(v) != p.Len() {
			return fmt.Errorf("zero: checkpoint parameter %q has %d elems, want %d", p.Name, len(v), p.Len())
		}
		d := p.Data()
		copy(d, v)
		e.place(i, tensor.RoundTripHalf(d))
	}
	e.stepCount = 0
	return nil
}

// FullParams returns the current fp16 parameter values as float32 vectors,
// keyed by parameter name (for engine-equivalence tests).
func (e *DPEngine) FullParams() map[string][]float32 {
	out := make(map[string][]float32, len(e.params))
	for _, p := range e.params {
		out[p.Name] = append([]float32(nil), p.Data()...)
	}
	return out
}
