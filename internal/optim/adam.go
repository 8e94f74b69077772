// Package optim implements mixed-precision Adam, the optimizer the paper's
// Sec. 3 memory model assumes: fp16 parameters and gradients for
// forward/backward, fp32 master parameters, momentum and variance for the
// update (20 bytes of state per parameter), plus dynamic loss scaling.
//
// The optimizer is one pure function, StepVec (StepVecOn on a chosen
// compute backend), over caller-owned master, gradient, momentum and
// variance vectors; the engines keep that state in their tiers and count
// the steps themselves. Adam is elementwise, so a partitioned update over
// shards is exactly equal to a replicated update — the property ZeRO stages
// 1-3 exploit and the engine-equivalence tests verify.
package optim

import (
	"math"
	"sync"

	"repro/internal/tensor"
)

// AdamConfig holds hyperparameters.
type AdamConfig struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64
}

// DefaultAdamConfig mirrors the common large-model recipe.
func DefaultAdamConfig() AdamConfig {
	return AdamConfig{LR: 1e-3, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// BytesPerParam is the paper's Sec. 3 accounting: fp16 param (2) + fp16 grad
// (2) + fp32 master param, momentum, variance and fp32 gradient copy (16).
const BytesPerParam = 20

// OptimizerStateBytesPerParam is the fp32 Adam state alone (master copy,
// momentum, variance, fp32 gradient) — what ZeRO offloads as "optimizer
// states".
const OptimizerStateBytesPerParam = 16

// StepVec applies the Adam update as a pure function over externally-owned
// state vectors — resident in a tier, or streamed through CPU staging
// buffers from NVMe. step is the 1-based update count. The arithmetic is
// float64 per element for bias correction and float32 for state; it is
// deterministic, so sharded and replicated updates agree exactly.
//
//zinf:hotpath
func StepVec(cfg AdamConfig, step int, params, grads, m, v []float32) {
	StepVecOn(tensor.Reference(), cfg, step, params, grads, m, v)
}

// StepVecOn is StepVec with the elementwise update fanned out over be. The
// update touches each element exactly once with no cross-element reduction,
// so partitioned execution is bit-identical to serial.
//
//zinf:hotpath
func StepVecOn(be tensor.Backend, cfg AdamConfig, step int, params, grads, m, v []float32) {
	if len(params) != len(grads) || len(params) != len(m) || len(params) != len(v) {
		panic("optim: StepVec length mismatch")
	}
	bc1 := 1 - math.Pow(cfg.Beta1, float64(step))
	bc2 := 1 - math.Pow(cfg.Beta2, float64(step))
	be = tensor.DefaultBackend(be)
	if tensor.IsReference(be) {
		adamChunk(cfg, bc1, bc2, params, grads, m, v, 0, len(grads))
		return
	}
	a := adamArgsPool.Get().(*adamArgs)
	a.cfg, a.bc1, a.bc2 = cfg, bc1, bc2
	a.params, a.grads, a.m, a.v = params, grads, m, v
	be.ParRangeCtx(len(grads), 1<<12, a, adamParChunk)
	*a = adamArgs{}
	adamArgsPool.Put(a)
}

// adamArgs carries one StepVecOn call's operands to adamParChunk, so the
// parallel fan-out needs no escaping closure — one per-param update per step
// would otherwise be the only allocation left on the parallel backend's
// full-step zero-alloc path.
type adamArgs struct {
	cfg           AdamConfig
	bc1, bc2      float64
	params, grads []float32
	m, v          []float32
}

var adamArgsPool = sync.Pool{New: func() any { return new(adamArgs) }}

//zinf:hotpath
func adamParChunk(ctx any, lo, hi int) {
	a := ctx.(*adamArgs)
	adamChunk(a.cfg, a.bc1, a.bc2, a.params, a.grads, a.m, a.v, lo, hi)
}

// adamElem applies the update to one element and returns the new param,
// momentum and variance. Small enough to inline into adamChunk's unrolled
// body; the arithmetic is exactly the historical serial loop's, so the
// unrolled kernel is bit-identical to adamChunkScalar.
//
//zinf:hotpath
func adamElem(b1, b2, lr, eps, wd, bc1, bc2 float64, p, g, mi, vi float32) (float32, float32, float32) {
	gf := float64(g)
	if wd != 0 {
		gf += wd * float64(p)
	}
	mf := b1*float64(mi) + (1-b1)*gf
	vf := b2*float64(vi) + (1-b2)*gf*gf
	update := (mf / bc1) / (math.Sqrt(vf/bc2) + eps)
	return float32(float64(p) - lr*update), float32(mf), float32(vf)
}

// adamChunk applies the elementwise update to [lo, hi). Each element is
// touched exactly once with no cross-element reduction, so partitioned
// execution is bit-identical to serial. The body processes four elements
// per iteration through three-index subslices: each element's update chain
// ends in a divide and a square root, so the win is keeping four
// independent sqrt/div chains in flight rather than one.
//
//zinf:hotpath
func adamChunk(cfg AdamConfig, bc1, bc2 float64, params, grads, m, v []float32, lo, hi int) {
	b1, b2 := cfg.Beta1, cfg.Beta2
	lr, eps, wd := cfg.LR, cfg.Eps, cfg.WeightDecay
	i := lo
	for ; i+4 <= hi; i += 4 {
		p := params[i : i+4 : i+4]
		g := grads[i : i+4 : i+4]
		mm := m[i : i+4 : i+4]
		vv := v[i : i+4 : i+4]
		p[0], mm[0], vv[0] = adamElem(b1, b2, lr, eps, wd, bc1, bc2, p[0], g[0], mm[0], vv[0])
		p[1], mm[1], vv[1] = adamElem(b1, b2, lr, eps, wd, bc1, bc2, p[1], g[1], mm[1], vv[1])
		p[2], mm[2], vv[2] = adamElem(b1, b2, lr, eps, wd, bc1, bc2, p[2], g[2], mm[2], vv[2])
		p[3], mm[3], vv[3] = adamElem(b1, b2, lr, eps, wd, bc1, bc2, p[3], g[3], mm[3], vv[3])
	}
	for ; i < hi; i++ {
		params[i], m[i], v[i] = adamElem(b1, b2, lr, eps, wd, bc1, bc2, params[i], grads[i], m[i], v[i])
	}
}

// adamChunkScalar is the pre-unroll serial loop, retained as the
// bit-equality baseline for the unrolled kernel and as the roofline
// harness's scalar Adam measurement (via StepVecScalar).
//
//zinf:hotpath
func adamChunkScalar(cfg AdamConfig, bc1, bc2 float64, params, grads, m, v []float32, lo, hi int) {
	b1, b2 := cfg.Beta1, cfg.Beta2
	lr, eps, wd := cfg.LR, cfg.Eps, cfg.WeightDecay
	for i := lo; i < hi; i++ {
		gf := float64(grads[i])
		if wd != 0 {
			gf += wd * float64(params[i])
		}
		mf := b1*float64(m[i]) + (1-b1)*gf
		vf := b2*float64(v[i]) + (1-b2)*gf*gf
		m[i] = float32(mf)
		v[i] = float32(vf)
		update := (mf / bc1) / (math.Sqrt(vf/bc2) + eps)
		params[i] = float32(float64(params[i]) - lr*update)
	}
}

// StepVecScalar is StepVec on the pre-unroll scalar loop — the roofline
// harness's baseline. Bit-identical to StepVec.
//
//zinf:hotpath
func StepVecScalar(cfg AdamConfig, step int, params, grads, m, v []float32) {
	if len(params) != len(grads) || len(params) != len(m) || len(params) != len(v) {
		panic("optim: StepVec length mismatch")
	}
	bc1 := 1 - math.Pow(cfg.Beta1, float64(step))
	bc2 := 1 - math.Pow(cfg.Beta2, float64(step))
	adamChunkScalar(cfg, bc1, bc2, params, grads, m, v, 0, len(grads))
}

// LossScaler implements dynamic loss scaling for fp16 training: the loss is
// multiplied by Scale before backward; gradients are unscaled before the
// optimizer step; steps that produce non-finite gradients are skipped and
// the scale halved; after GrowthInterval clean steps the scale doubles.
type LossScaler struct {
	Scale          float64
	GrowthInterval int
	MaxScale       float64

	goodSteps int
	skipped   int
}

// NewLossScaler returns a scaler starting at scale (e.g. 65536).
func NewLossScaler(scale float64) *LossScaler {
	return &LossScaler{Scale: scale, GrowthInterval: 100, MaxScale: 1 << 24}
}

// StaticLossScaler returns a non-adaptive scaler (GrowthInterval disabled).
func StaticLossScaler(scale float64) *LossScaler {
	return &LossScaler{Scale: scale, GrowthInterval: math.MaxInt, MaxScale: scale}
}

// Update records whether the step overflowed and adapts the scale.
// It returns true when the optimizer step must be skipped.
//
//zinf:hotpath
func (s *LossScaler) Update(overflow bool) (skip bool) {
	if overflow {
		s.Scale = math.Max(s.Scale/2, 1)
		s.goodSteps = 0
		s.skipped++
		return true
	}
	s.goodSteps++
	if s.goodSteps >= s.GrowthInterval && s.Scale < s.MaxScale {
		s.Scale *= 2
		s.goodSteps = 0
	}
	return false
}

// Skipped returns the number of overflow-skipped steps.
func (s *LossScaler) Skipped() int { return s.skipped }

// State exposes the full dynamic-scaling state for checkpointing: the
// current scale, the clean-step counter toward the next growth, and the
// cumulative skip count. Restoring all three (see Restore) is required for
// bit-identical resume — a resumed run that reset goodSteps would double
// the scale at a different step than the uninterrupted run.
func (s *LossScaler) State() (scale float64, goodSteps, skipped int) {
	return s.Scale, s.goodSteps, s.skipped
}

// Restore reinstates state captured by State.
func (s *LossScaler) Restore(scale float64, goodSteps, skipped int) {
	s.Scale = scale
	s.goodSteps = goodSteps
	s.skipped = skipped
}

// UnscaleCheck divides grads by the scale in place and reports whether any
// element is NaN/Inf (checked before unscaling, as overflow happens in the
// scaled fp16 domain).
//
//zinf:hotpath
func UnscaleCheck(grads []float32, scale float64) (overflow bool) {
	if tensor.HasNaNOrInf(grads) {
		return true
	}
	inv := float32(1 / scale)
	if inv != 1 {
		tensor.Scale(inv, grads)
	}
	return false
}
