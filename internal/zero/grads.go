package zero

import (
	"repro/internal/comm"
	"repro/internal/tensor"
)

// Shared gradient-inspection sequences used by both engine bodies (the DP
// family and the sharded engine). Both are collectives —
// every rank must call them at the same point in the step — and both follow
// the engine-invariant accumulation order the bit-identity contract depends
// on: local scan in parameter order, folded in rank order by the collective.

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
