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
// Hot-path buffers — padded fp16 gradient buffers (keyed by padded length
// through the arena's size classes), reduced fp32 gradients, encoded and
// gathered fp16 parameter views — cycle through per-engine scratch arenas,
// so steady-state steps stop hitting the Go allocator after step 1.
type DPEngine struct {
	cfg    Config
	c      *comm.Comm
	g      Model
	rt     *module.Runtime
	params []*module.Param

	// fp16 is the authoritative replicated fp16 weight storage.
	fp16 map[*module.Param][]tensor.Half
	// master/adam cover the full parameter for DDP, this rank's shard for
	// ZeRO-1/2/Offload.
	master map[*module.Param][]float32
	adam   map[*module.Param]*optim.Adam

	scaler *optim.LossScaler

	// decoded reduced gradients, kept between the reduce and update phases.
	grads map[*module.Param][]float32

	// f32/f16 are the engine's scratch arenas.
	f32 *mem.Arena[float32]
	f16 *mem.Arena[tensor.Half]

	// Reused step scratch.
	gradsBuf           [][]float32
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
		fp16:   make(map[*module.Param][]tensor.Half),
		master: make(map[*module.Param][]float32),
		adam:   make(map[*module.Param]*optim.Adam),
		grads:  make(map[*module.Param][]float32),
		f32:    mem.NewArena[float32](),
		f16:    mem.NewArena[tensor.Half](),
	}
	e.rt = module.NewRuntime(nil)
	e.rt.SetBackend(cfg.Backend)
	e.rt.SetStepArena(mem.NewStepArena())
	if cfg.DynamicLossScale {
		e.scaler = optim.NewLossScaler(cfg.LossScale)
	} else {
		e.scaler = optim.StaticLossScaler(cfg.LossScale)
	}
	dp := c.Size()
	for _, p := range e.params {
		full := model.InitValues(p, cfg.Seed)
		h := make([]tensor.Half, p.Len())
		tensor.EncodeHalf(h, full)
		e.fp16[p] = h
		p.SetData(full)
		p.SetGradScratch(e.f32.Get, e.f32.Put)
		if cfg.Stage == StageDDP {
			e.master[p] = append([]float32(nil), full...)
			e.adam[p] = optim.NewAdam(p.Len(), cfg.Adam).WithBackend(e.rt.Backend())
		} else {
			s := comm.ShardLen(p.Len(), dp)
			shard := make([]float32, s)
			comm.Shard(shard, full, c.Rank(), dp)
			e.master[p] = shard
			e.adam[p] = optim.NewAdam(s, cfg.Adam).WithBackend(e.rt.Backend())
		}
	}
	return e, nil
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

	if GlobalOverflow(e.c, e.rt.Backend(), e.gradList()) {
		e.scaler.Update(true)
		for _, p := range e.params {
			if g := e.grads[p]; g != nil {
				e.f32.Put(g)
				delete(e.grads, p)
			}
		}
		return e.finishStep(StepResult{Loss: globalLoss, Skipped: true, LossScale: e.scaler.Scale})
	}

	inv := 1 / (scaleUsed * float64(dp) * float64(micros))
	for _, p := range e.params {
		e.rt.Backend().Scale(float32(inv), e.grads[p])
	}
	if f := e.clipFactor(); f != 1 {
		for _, p := range e.params {
			e.rt.Backend().Scale(float32(f), e.grads[p])
		}
	}
	for _, p := range e.params {
		g := e.grads[p]
		e.adam[p].Step(e.master[p], g)
		e.f32.Put(g)
		delete(e.grads, p)

		// Re-materialize fp16 weights.
		n := p.Len()
		if e.cfg.Stage == StageDDP {
			e.rt.Backend().EncodeHalf(e.fp16[p], e.master[p])
			e.rt.Backend().DecodeHalf(p.Data(), e.fp16[p])
			continue
		}
		dpLen := comm.ShardLen(n, dp)
		if e.cfg.OffloadOptimizer {
			// Updated fp16 shard returns from CPU to GPU before allgather.
			e.BytesFromCPU += int64(dpLen) * tensor.HalfBytes
		}
		// Fused encode+allgather: each rank's fp32 master shard is rounded
		// to fp16 once inside the collective — no intermediate shard buffer.
		full := e.f16.Get(dpLen * dp)
		e.c.AllGatherEncodeHalf(full, e.master[p])
		copy(e.fp16[p], full[:n])
		e.f16.Put(full)
		e.rt.Backend().DecodeHalf(p.Data(), e.fp16[p])
	}
	e.scaler.Update(false)
	return e.finishStep(StepResult{Loss: globalLoss, LossScale: e.scaler.Scale})
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
	for _, p := range e.params {
		n := p.Len()
		padded := comm.PaddedLen(n, dp)
		gh := e.f16.Get(padded)
		e.rt.Backend().EncodeHalf(gh[:n], p.Grad())
		clear(gh[n:])
		var reduced []float32
		switch e.cfg.Stage {
		case StageDDP, Stage1:
			e.c.AllReduceHalf(gh[:n])
			if e.cfg.Stage == StageDDP {
				reduced = e.f32.Get(n)
				e.rt.Backend().DecodeHalf(reduced, gh[:n])
			} else {
				lo, hi := comm.ShardRange(n, e.c.Rank(), dp)
				s := hi - lo
				reduced = e.f32.Get(s)
				for i := 0; i < s; i++ {
					if lo+i < n {
						reduced[i] = gh[lo+i].Float32()
					} else {
						reduced[i] = 0
					}
				}
			}
		case Stage2:
			// Fused reduce-scatter+decode: the reduced fp16 shard lands
			// directly as fp32, with no intermediate fp16 shard buffer.
			reduced = e.f32.Get(padded / dp)
			e.c.ReduceScatterHalfDecode(reduced, gh)
			if e.cfg.OffloadOptimizer {
				// Gradient shard moves to CPU for the update.
				e.BytesToCPU += int64(len(reduced)) * tensor.HalfBytes
			}
		}
		e.f16.Put(gh)
		p.ReleaseGrad()
		if acc := e.grads[p]; acc != nil {
			e.rt.Backend().Axpy(1, reduced, acc)
			e.f32.Put(reduced)
		} else {
			e.grads[p] = reduced //zinf:allow hotpathalloc keyset fixed after the first step; steady state takes the accumulate branch above
		}
	}
}

// gradList returns this rank's reduced gradient buffers in parameter order
// (the order the shared overflow/clip helpers require), reusing the
// engine's scratch list.
//
//zinf:hotpath
func (e *DPEngine) gradList() [][]float32 {
	gs := e.gradsBuf[:0]
	for _, p := range e.params {
		gs = append(gs, e.grads[p])
	}
	e.gradsBuf = gs
	return gs
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
		return GlobalClipFactor(e.c, e.cfg.ClipNorm, e.gradList())
	}
	// Replicated gradients: emulate the sharded engines' rank-major
	// accumulation exactly.
	dp := e.c.Size()
	var total float64
	for r := 0; r < dp; r++ {
		var partial float64
		for _, p := range e.params {
			lo, hi := comm.ShardRange(p.Len(), r, dp)
			g := e.grads[p]
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
	dp := e.c.Size()
	for _, p := range e.params {
		v, ok := values[p.Name]
		if !ok {
			return fmt.Errorf("zero: checkpoint missing parameter %q", p.Name)
		}
		if len(v) != p.Len() {
			return fmt.Errorf("zero: checkpoint parameter %q has %d elems, want %d", p.Name, len(v), p.Len())
		}
		tensor.EncodeHalf(e.fp16[p], v)
		tensor.DecodeHalf(p.Data(), e.fp16[p])
		if e.cfg.Stage == StageDDP {
			copy(e.master[p], p.Data())
			e.adam[p] = optim.NewAdam(p.Len(), e.cfg.Adam).WithBackend(e.rt.Backend())
		} else {
			comm.Shard(e.master[p], p.Data(), e.c.Rank(), dp)
			e.adam[p] = optim.NewAdam(len(e.master[p]), e.cfg.Adam).WithBackend(e.rt.Backend())
		}
	}
	return nil
}

// FullParams gathers the current fp16 parameter values as float32 vectors,
// keyed by parameter name (for engine-equivalence tests).
func (e *DPEngine) FullParams() map[string][]float32 {
	out := make(map[string][]float32, len(e.params))
	for _, p := range e.params {
		v := make([]float32, p.Len())
		tensor.DecodeHalf(v, e.fp16[p])
		out[p.Name] = v
	}
	return out
}
