package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"repro/internal/model"
	"repro/internal/module"
	"repro/internal/tensor"
)

// spanName identifies what a span brackets: the root step, the model's two
// entry points, or one tensor.Backend method.
type spanName uint8

const (
	spanStep spanName = iota
	spanFwd
	spanBwd
	spanMatMul
	spanMatMulTransA
	spanMatMulTransB
	spanGelu
	spanGeluBackward
	spanSoftmaxRows
	spanSoftmaxRowsBackward
	spanEncodeHalf
	spanDecodeHalf
	spanAdd
	spanMul
	spanAxpy
	spanScale
	spanTranspose
	spanSum
	spanDot
	spanL2Norm
	spanMaxAbs
	spanHasNaNOrInf
	spanParRange
	spanParRangeCtx
	spanNameCount
)

var spanNames = [spanNameCount]string{
	"step", "model.fwd", "model.bwd",
	"tensor.MatMul", "tensor.MatMulTransA", "tensor.MatMulTransB",
	"tensor.Gelu", "tensor.GeluBackward", "tensor.SoftmaxRows", "tensor.SoftmaxRowsBackward",
	"tensor.EncodeHalf", "tensor.DecodeHalf",
	"tensor.Add", "tensor.Mul", "tensor.Axpy", "tensor.Scale", "tensor.Transpose",
	"tensor.Sum", "tensor.Dot", "tensor.L2Norm", "tensor.MaxAbs", "tensor.HasNaNOrInf",
	"tensor.ParRange", "tensor.ParRangeCtx",
}

// kernelClass groups the tensor spans into the per-layer metrics.
type kernelClass uint8

const (
	classNone kernelClass = iota // step, fwd, bwd
	classMatMul
	classElementwise
	classCodec
	classReduce
	classParRange
	classCount
)

var spanClass = [spanNameCount]kernelClass{
	spanMatMul: classMatMul, spanMatMulTransA: classMatMul, spanMatMulTransB: classMatMul,
	spanGelu: classElementwise, spanGeluBackward: classElementwise,
	spanSoftmaxRows: classElementwise, spanSoftmaxRowsBackward: classElementwise,
	spanAdd: classElementwise, spanMul: classElementwise, spanAxpy: classElementwise,
	spanScale: classElementwise, spanTranspose: classElementwise,
	spanEncodeHalf: classCodec, spanDecodeHalf: classCodec,
	spanSum: classReduce, spanDot: classReduce, spanL2Norm: classReduce,
	spanMaxAbs: classReduce, spanHasNaNOrInf: classReduce,
	spanParRange: classParRange, spanParRangeCtx: classParRange,
}

// span is one recorded interval; Parent is the index of the span that was
// open when this one began (-1 for a root). Times are ns since the
// recorder's epoch.
type span struct {
	Name       spanName
	Parent     int32
	Start, End int64
}

// recorder keeps one goroutine's spans in a buffer allocated up front, so
// recording allocates nothing. A nil recorder records nothing: the ranks
// that are not traced run the same decorators with one.
type recorder struct {
	spans []span
	open  int32 // innermost open span, -1 when none
	epoch time.Time
}

// Spans per step at m256 are ~1.5k; a pass of ~100 steps fits with room.
const recorderCap = 1 << 19

func newRecorder(capacity int) *recorder {
	return &recorder{spans: make([]span, 0, capacity), open: -1, epoch: time.Now()}
}

func (r *recorder) begin(n spanName) int32 {
	if r == nil || len(r.spans) == cap(r.spans) {
		return -1
	}
	i := int32(len(r.spans))
	r.spans = append(r.spans, span{Name: n, Parent: r.open, Start: int64(time.Since(r.epoch))})
	r.open = i
	return i
}

func (r *recorder) end(i int32) {
	if i < 0 {
		return
	}
	r.spans[i].End = int64(time.Since(r.epoch))
	r.open = r.spans[i].Parent
}

// nearlyFull reports that fewer than a few steps' worth of spans fit, so
// the pass should stop rather than record a truncated step.
func (r *recorder) nearlyFull() bool {
	return r != nil && cap(r.spans)-len(r.spans) < cap(r.spans)/16
}

// tracedBackend forwards every tensor.Backend method to the reference
// backend inside a span. It is not the reference type, so optim.StepVecOn
// fans Adam out through ParRangeCtx, where it is seen.
type tracedBackend struct {
	ref tensor.Backend
	rec *recorder
}

// A kernel added to tensor.Backend breaks this line until it is forwarded,
// so none can bypass the trace.
var _ tensor.Backend = (*tracedBackend)(nil)

func newTracedBackend(rec *recorder) *tracedBackend {
	return &tracedBackend{ref: tensor.Reference(), rec: rec}
}

func (b *tracedBackend) Name() string { return "traced-reference" }

func (b *tracedBackend) MatMul(c, a, x []float32, m, k, n int) {
	s := b.rec.begin(spanMatMul)
	b.ref.MatMul(c, a, x, m, k, n)
	b.rec.end(s)
}

func (b *tracedBackend) MatMulTransA(c, a, x []float32, m, k, n int) {
	s := b.rec.begin(spanMatMulTransA)
	b.ref.MatMulTransA(c, a, x, m, k, n)
	b.rec.end(s)
}

func (b *tracedBackend) MatMulTransB(c, a, x []float32, m, k, n int) {
	s := b.rec.begin(spanMatMulTransB)
	b.ref.MatMulTransB(c, a, x, m, k, n)
	b.rec.end(s)
}

func (b *tracedBackend) Gelu(dst, x []float32) {
	s := b.rec.begin(spanGelu)
	b.ref.Gelu(dst, x)
	b.rec.end(s)
}

func (b *tracedBackend) GeluBackward(dx, dy, x []float32) {
	s := b.rec.begin(spanGeluBackward)
	b.ref.GeluBackward(dx, dy, x)
	b.rec.end(s)
}

func (b *tracedBackend) SoftmaxRows(x []float32, m, n int) {
	s := b.rec.begin(spanSoftmaxRows)
	b.ref.SoftmaxRows(x, m, n)
	b.rec.end(s)
}

func (b *tracedBackend) SoftmaxRowsBackward(dx, dy, y []float32, m, n int) {
	s := b.rec.begin(spanSoftmaxRowsBackward)
	b.ref.SoftmaxRowsBackward(dx, dy, y, m, n)
	b.rec.end(s)
}

func (b *tracedBackend) EncodeHalf(dst []tensor.Half, src []float32) {
	s := b.rec.begin(spanEncodeHalf)
	b.ref.EncodeHalf(dst, src)
	b.rec.end(s)
}

func (b *tracedBackend) DecodeHalf(dst []float32, src []tensor.Half) {
	s := b.rec.begin(spanDecodeHalf)
	b.ref.DecodeHalf(dst, src)
	b.rec.end(s)
}

func (b *tracedBackend) Add(dst, a, x []float32) {
	s := b.rec.begin(spanAdd)
	b.ref.Add(dst, a, x)
	b.rec.end(s)
}

func (b *tracedBackend) Mul(dst, a, x []float32) {
	s := b.rec.begin(spanMul)
	b.ref.Mul(dst, a, x)
	b.rec.end(s)
}

func (b *tracedBackend) Axpy(alpha float32, x, y []float32) {
	s := b.rec.begin(spanAxpy)
	b.ref.Axpy(alpha, x, y)
	b.rec.end(s)
}

func (b *tracedBackend) Scale(alpha float32, x []float32) {
	s := b.rec.begin(spanScale)
	b.ref.Scale(alpha, x)
	b.rec.end(s)
}

func (b *tracedBackend) Transpose(dst, a []float32, m, n int) {
	s := b.rec.begin(spanTranspose)
	b.ref.Transpose(dst, a, m, n)
	b.rec.end(s)
}

func (b *tracedBackend) Sum(x []float32) float64 {
	s := b.rec.begin(spanSum)
	v := b.ref.Sum(x)
	b.rec.end(s)
	return v
}

func (b *tracedBackend) Dot(a, x []float32) float64 {
	s := b.rec.begin(spanDot)
	v := b.ref.Dot(a, x)
	b.rec.end(s)
	return v
}

func (b *tracedBackend) L2Norm(x []float32) float64 {
	s := b.rec.begin(spanL2Norm)
	v := b.ref.L2Norm(x)
	b.rec.end(s)
	return v
}

func (b *tracedBackend) MaxAbs(x []float32) float32 {
	s := b.rec.begin(spanMaxAbs)
	v := b.ref.MaxAbs(x)
	b.rec.end(s)
	return v
}

func (b *tracedBackend) HasNaNOrInf(x []float32) bool {
	s := b.rec.begin(spanHasNaNOrInf)
	v := b.ref.HasNaNOrInf(x)
	b.rec.end(s)
	return v
}

func (b *tracedBackend) ParRange(n, grain int, fn func(lo, hi int)) {
	s := b.rec.begin(spanParRange)
	b.ref.ParRange(n, grain, fn)
	b.rec.end(s)
}

func (b *tracedBackend) ParRangeCtx(n, grain int, ctx any, fn func(ctx any, lo, hi int)) {
	s := b.rec.begin(spanParRangeCtx)
	b.ref.ParRangeCtx(n, grain, ctx, fn)
	b.rec.end(s)
}

// tracedModel is *model.GPT with spans around the two entry points the
// engines call; the module tree and the hooks see the GPT unchanged.
type tracedModel struct {
	*model.GPT
	rec *recorder
}

func (m tracedModel) ForwardLoss(rt *module.Runtime, tokens, targets []int, batch int) float64 {
	s := m.rec.begin(spanFwd)
	loss := m.GPT.ForwardLoss(rt, tokens, targets, batch)
	m.rec.end(s)
	return loss
}

func (m tracedModel) BackwardLoss(rt *module.Runtime, scale float32) {
	s := m.rec.begin(spanBwd)
	m.GPT.BackwardLoss(rt, scale)
	m.rec.end(s)
}

// stepBreakdown is one root step span taken apart, in ns. Self time is a
// span's duration minus the part its children cover.
type stepBreakdown struct {
	Step, Fwd, Bwd   int64
	FwdSelf, BwdSelf int64 // hook time: exposed waits, release, reduce issue
	// Class is kernel self time anywhere in the step. TailClass is the part
	// after model.bwd returned; its ParRange entry is the optimizer, since
	// Adam is the only ParRangeCtx caller there.
	Class, TailClass [classCount]int64
	MatMulCalls      int
}

// Tail is the part of the step after model.bwd returned (and the sliver
// before model.fwd began): reduce drain, overflow consensus, clip,
// optimizer, write-back.
func (s stepBreakdown) Tail() int64 { return s.Step - s.Fwd - s.Bwd }

// TailOther is the tail with the optimizer and tensor kernels taken out.
func (s stepBreakdown) TailOther() int64 {
	t := s.Tail()
	for _, v := range s.TailClass {
		t -= v
	}
	return t
}

// analyze returns one breakdown per root step span, in order. Spans are
// stored in begin order, so a parent always precedes its children.
func analyze(spans []span) []stepBreakdown {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	var out []stepBreakdown
	inTail := make([]bool, len(spans)) // top-level ancestor is the step itself
	for i, s := range spans {
		d := s.End - s.Start
		switch {
		case s.Parent < 0:
			if s.Name != spanStep {
				panic("bench: root span is not a step")
			}
			out = append(out, stepBreakdown{Step: d})
			continue
		case spans[s.Parent].Name == spanStep:
			inTail[i] = s.Name != spanFwd && s.Name != spanBwd
		default:
			inTail[i] = inTail[s.Parent]
		}
		b := &out[len(out)-1]
		switch s.Name {
		case spanFwd:
			b.Fwd += d
			b.FwdSelf += self[i]
		case spanBwd:
			b.Bwd += d
			b.BwdSelf += self[i]
		default:
			c := spanClass[s.Name]
			b.Class[c] += self[i]
			if inTail[i] {
				b.TailClass[c] += self[i]
			}
			if c == classMatMul {
				b.MatMulCalls++
			}
		}
	}
	return out
}

// writeChromeTrace writes the spans of the last `steps` root steps in the
// Chrome trace-event format (open in chrome://tracing or ui.perfetto.dev).
func writeChromeTrace(path string, spans []span, steps int) error {
	first := len(spans)
	for i := len(spans) - 1; i >= 0 && steps > 0; i-- {
		if spans[i].Parent < 0 {
			first = i
			steps--
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	for i, s := range spans[first:] {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "\n{\"name\":%q,\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":%.3f,\"dur\":%.3f}",
			spanNames[s.Name], float64(s.Start)/1e3, float64(s.End-s.Start)/1e3)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
