package zero

import (
	"math"

	"repro/internal/comm"
	"repro/internal/tensor"
)

// The step tail's gradient inspection: the fp16 overflow check and global
// gradient-norm clipping. Both global forms are collectives — every rank
// calls them at the same point in the step — and both follow the
// stage-invariant order the bit-identity contract depends on: a local scan
// in parameter order (float64 sums for the norm), folded in rank order by
// the collective.

// GlobalOverflow reports whether any rank's gradient buffers contain a NaN
// or Inf (the fp16 loss-scaling overflow check). grads holds this rank's
// buffers in parameter order; nil entries are skipped.
//
//zinf:hotpath
func GlobalOverflow(c *comm.Comm, be tensor.Backend, grads [][]float32) bool {
	overflow := 0.0
	for _, g := range grads {
		if be.HasNaNOrInf(g) {
			overflow = 1
			break
		}
	}
	return c.AllReduceMax(overflow) > 0
}

// GlobalClipFactor returns the multiplier that brings the global (all-rank,
// all-parameter) gradient L2 norm down to clipNorm: SumSq per buffer in
// order, summed locally in float64, folded in rank order by AllReduceScalar,
// then ClipFactor. With clipNorm <= 0 it returns 1 without communicating.
//
//zinf:hotpath
func GlobalClipFactor(c *comm.Comm, clipNorm float64, grads [][]float32) float64 {
	if clipNorm <= 0 {
		return 1
	}
	var local float64
	for _, g := range grads {
		local += SumSq(g)
	}
	return ClipFactor(c.AllReduceScalar(local), clipNorm)
}

// SumSq accumulates Σ g² in float64 over one gradient shard.
//
//zinf:hotpath
func SumSq(g []float32) float64 {
	var s float64
	for _, v := range g {
		s += float64(v) * float64(v)
	}
	return s
}

// ClipFactor returns the multiplier (≤ 1) that brings a gradient of the
// given squared norm down to clipNorm; 1 when already within bounds or when
// clipping is disabled.
//
//zinf:hotpath
func ClipFactor(sumSq, clipNorm float64) float64 {
	if clipNorm <= 0 || sumSq <= clipNorm*clipNorm {
		return 1
	}
	return clipNorm / math.Sqrt(sumSq)
}
