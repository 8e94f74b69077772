// Package module provides the model-structure substrate mirroring the role
// PyTorch's nn.Module plays for DeepSpeed (paper Sec. 7 "Ease Inspired
// Implementation"): a tree of named modules owning named parameters, a
// Runtime that fires pre/post forward/backward hooks around every submodule
// (the paper's injected hooks), and on-demand parameter access interception
// so engines can gather a partitioned parameter the moment user code touches
// it — the mechanism behind automatic external-parameter registration.
package module

import (
	"fmt"

	"repro/internal/tensor"
)

// Param is one named model parameter. Its authoritative storage belongs to
// whichever training engine manages it (replicated fp16 for DDP, partitioned
// shards on GPU/CPU/NVMe for the ZeRO family). The full fp16-valued view in
// data is materialized ("gathered") by the engine before use and may be
// released afterwards.
type Param struct {
	Name  string
	Shape []int
	// InitStd is the weight-init standard deviation (0 means zeros, e.g.
	// biases and LayerNorm offsets; InitOnes overrides with ones).
	InitStd  float64
	InitOnes bool

	n    int
	data []float32 // gathered full view (fp16-representable values); nil when released
	grad []float32 // fp32 local gradient accumulator; nil until first use

	// onDemand, when set by an engine, is invoked by Data() if the
	// parameter is not materialized. It must leave the parameter gathered.
	onDemand func(*Param)
	// gradGet/gradPut, when set by an engine, route the gradient
	// accumulator through the engine's scratch arena instead of the heap:
	// Grad() draws (and zeroes) a buffer via gradGet, ReleaseGrad returns
	// it via gradPut. This is what keeps the backward pass allocation-free
	// in steady state.
	gradGet func(n int) []float32
	gradPut func([]float32)
	// accessedWhileReleased counts on-demand gathers, exposed so tests can
	// verify auto-registration fired.
	accessedWhileReleased int
}

// NewParam declares a parameter with the given name and shape.
func NewParam(name string, initStd float64, shape ...int) *Param {
	return &Param{Name: name, Shape: append([]int(nil), shape...), InitStd: initStd, n: tensor.NumElems(shape)}
}

// Len returns the number of elements.
//
//zinf:hotpath
func (p *Param) Len() int { return p.n }

// FP16Bytes returns the fp16 storage footprint of the parameter.
//
//zinf:hotpath
func (p *Param) FP16Bytes() int64 { return int64(p.n) * tensor.HalfBytes }

// Data returns the gathered full view of the parameter. If the parameter is
// partitioned away and an on-demand handler is installed, the handler runs
// first (blocking gather); otherwise Data panics, which flags an engine bug.
//
//zinf:hotpath
func (p *Param) Data() []float32 {
	if p.data == nil {
		if p.onDemand == nil {
			panic(fmt.Sprintf("module: parameter %q accessed while released and no on-demand handler installed", p.Name))
		}
		p.accessedWhileReleased++
		p.onDemand(p)
		if p.data == nil {
			panic(fmt.Sprintf("module: on-demand handler left %q unmaterialized", p.Name))
		}
	}
	return p.data
}

// Materialized reports whether the full view is currently present.
//
//zinf:hotpath
func (p *Param) Materialized() bool { return p.data != nil }

// SetData installs the gathered full view. The engine owns the slice.
//
//zinf:hotpath
func (p *Param) SetData(d []float32) {
	if len(d) != p.n {
		panic(fmt.Sprintf("module: SetData %q len %d != %d", p.Name, len(d), p.n))
	}
	p.data = d
}

// ReleaseData drops the full view (the "partition after use" step).
//
//zinf:hotpath
func (p *Param) ReleaseData() { p.data = nil }

// SetOnDemand installs the engine's blocking-gather handler.
func (p *Param) SetOnDemand(fn func(*Param)) { p.onDemand = fn }

// OnDemandGathers returns how many times Data() had to trigger the
// on-demand handler.
func (p *Param) OnDemandGathers() int { return p.accessedWhileReleased }

// SetGradScratch installs an engine-owned gradient-buffer recycler: get
// returns a buffer of the requested length (contents may be stale; Grad
// zeroes it), put takes a released buffer back. Either may be nil to restore
// plain heap allocation.
func (p *Param) SetGradScratch(get func(n int) []float32, put func([]float32)) {
	p.gradGet, p.gradPut = get, put
}

// Grad returns the fp32 gradient accumulator, allocating it zeroed on first
// use (from the engine's scratch arena when one is installed).
//
//zinf:hotpath
func (p *Param) Grad() []float32 {
	if p.grad == nil {
		if p.gradGet != nil {
			g := p.gradGet(p.n)
			clear(g)
			p.grad = g
		} else {
			p.grad = make([]float32, p.n) //zinf:allow hotpathalloc heap fallback when no engine scratch is installed; engines on the zero-alloc path install SetGradScratch
		}
	}
	return p.grad
}

// HasGrad reports whether a gradient buffer is live.
//
//zinf:hotpath
func (p *Param) HasGrad() bool { return p.grad != nil }

// ReleaseGrad drops the gradient buffer (after reduce-scatter/offload),
// recycling it through the engine's scratch arena when one is installed.
//
//zinf:hotpath
func (p *Param) ReleaseGrad() {
	if p.grad != nil && p.gradPut != nil {
		p.gradPut(p.grad)
	}
	p.grad = nil
}

// ZeroGrad zeroes the gradient buffer if it is live.
//
//zinf:hotpath
func (p *Param) ZeroGrad() {
	for i := range p.grad {
		p.grad[i] = 0
	}
}
