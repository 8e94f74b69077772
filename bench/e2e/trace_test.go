package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/tensor"
)

// syntheticStep is one step's span tree, shifted by off ns:
//
//	step [0,100]
//	  model.fwd [10,40]
//	    MatMul [12,20]
//	    ParRange [22,38]          (attention heads)
//	      MatMulTransB [25,30]
//	  model.bwd [40,80]
//	    MatMulTransA [45,60]
//	  Scale [82,84]               (tail: unscale)
//	  ParRangeCtx [85,95]         (tail: Adam)
//	  EncodeHalf [95,98]          (tail: fp16 refresh)
func syntheticStep(r *recorder, off int64) {
	add := func(n spanName, parent int32, start, end int64) int32 {
		r.spans = append(r.spans, span{Name: n, Parent: parent, Start: off + start, End: off + end})
		return int32(len(r.spans) - 1)
	}
	step := add(spanStep, -1, 0, 100)
	fwd := add(spanFwd, step, 10, 40)
	add(spanMatMul, fwd, 12, 20)
	heads := add(spanParRange, fwd, 22, 38)
	add(spanMatMulTransB, heads, 25, 30)
	bwd := add(spanBwd, step, 40, 80)
	add(spanMatMulTransA, bwd, 45, 60)
	add(spanScale, step, 82, 84)
	add(spanParRangeCtx, step, 85, 95)
	add(spanEncodeHalf, step, 95, 98)
}

func TestAnalyzeSelfTimeAndTail(t *testing.T) {
	r := newRecorder(64)
	syntheticStep(r, 0)
	syntheticStep(r, 1000)
	steps := analyze(r.spans)
	if len(steps) != 2 {
		t.Fatalf("got %d steps, want 2", len(steps))
	}
	for i, s := range steps {
		if s.Step != 100 || s.Fwd != 30 || s.Bwd != 40 {
			t.Errorf("step %d: step/fwd/bwd = %d/%d/%d, want 100/30/40", i, s.Step, s.Fwd, s.Bwd)
		}
		// fwd self = 30 - MatMul 8 - ParRange 16; the nested MatMulTransB is
		// the ParRange's child, not fwd's.
		if s.FwdSelf != 6 || s.BwdSelf != 25 {
			t.Errorf("step %d: fwd/bwd self = %d/%d, want 6/25", i, s.FwdSelf, s.BwdSelf)
		}
		if got := s.Class[classMatMul]; got != 8+5+15 {
			t.Errorf("step %d: matmul self %d, want 28", i, got)
		}
		if s.MatMulCalls != 3 {
			t.Errorf("step %d: %d matmul calls, want 3", i, s.MatMulCalls)
		}
		// ParRange self: heads 16-5 in fwd, Adam 10 in the tail.
		if got := s.Class[classParRange]; got != 11+10 {
			t.Errorf("step %d: parrange self %d, want 21", i, got)
		}
		if got := s.TailClass[classParRange]; got != 10 {
			t.Errorf("step %d: tail parrange (Adam) %d, want 10", i, got)
		}
		if got := s.TailClass[classMatMul]; got != 0 {
			t.Errorf("step %d: matmul counted in the tail: %d", i, got)
		}
		if s.Tail() != s.Step-s.Fwd-s.Bwd || s.Tail() != 30 {
			t.Errorf("step %d: tail %d, want step-fwd-bwd = 30", i, s.Tail())
		}
		// tail 30 - Scale 2 - Adam 10 - EncodeHalf 3
		if s.TailOther() != 15 {
			t.Errorf("step %d: tail other %d, want 15", i, s.TailOther())
		}
	}
}

func TestRecorderNestingAndLimits(t *testing.T) {
	r := newRecorder(3)
	a := r.begin(spanStep)
	b := r.begin(spanFwd)
	r.end(b)
	c := r.begin(spanBwd)
	d := r.begin(spanMatMul) // buffer full: dropped
	r.end(d)
	r.end(c)
	r.end(a)
	if d != -1 {
		t.Errorf("begin on a full buffer returned %d, want -1", d)
	}
	want := []int32{-1, a, a}
	for i, s := range r.spans {
		if s.Parent != want[i] {
			t.Errorf("span %d parent %d, want %d", i, s.Parent, want[i])
		}
		if s.End < s.Start {
			t.Errorf("span %d ends before it starts", i)
		}
	}
	if r.open != -1 {
		t.Errorf("open span %d after all ended", r.open)
	}
	var none *recorder
	none.end(none.begin(spanStep)) // must not panic
	if none.nearlyFull() {
		t.Error("nil recorder reports nearly full")
	}
}

// Every tensor.Backend method has a span name, so the Chrome trace and the
// class table cover a kernel the moment the decorator forwards it.
func TestEveryBackendMethodHasASpan(t *testing.T) {
	names := map[string]bool{}
	for _, n := range spanNames {
		names[n] = true
	}
	bt := reflect.TypeOf((*tensor.Backend)(nil)).Elem()
	for i := 0; i < bt.NumMethod(); i++ {
		m := bt.Method(i).Name
		if m != "Name" && !names["tensor."+m] {
			t.Errorf("tensor.Backend.%s has no span name", m)
		}
	}
	for n := spanMatMul; n < spanNameCount; n++ {
		if spanClass[n] == classNone {
			t.Errorf("%s has no kernel class", spanNames[n])
		}
	}
}

func TestTracedBackendForwardsAndRecords(t *testing.T) {
	r := newRecorder(16)
	be := newTracedBackend(r)
	a := []float32{1, 2, 3, 4}
	b := []float32{5, 6, 7, 8}
	got, want := make([]float32, 4), make([]float32, 4)
	be.MatMul(got, a, b, 2, 2, 2)
	tensor.Reference().MatMul(want, a, b, 2, 2, 2)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("MatMul through the decorator = %v, want %v", got, want)
	}
	if sum := be.Sum(a); sum != 10 {
		t.Errorf("Sum = %v, want 10", sum)
	}
	called := false
	be.ParRangeCtx(4, 1, nil, func(any, int, int) { called = true; be.Scale(2, a) })
	if !called {
		t.Error("ParRangeCtx did not run its function")
	}
	var seen []spanName
	for _, s := range r.spans {
		seen = append(seen, s.Name)
	}
	wantSeen := []spanName{spanMatMul, spanSum, spanParRangeCtx, spanScale}
	if !reflect.DeepEqual(seen, wantSeen) {
		t.Errorf("recorded %v, want %v", seen, wantSeen)
	}
	if p := r.spans[3].Parent; p != 2 {
		t.Errorf("Scale inside ParRangeCtx has parent %d, want 2", p)
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	r := newRecorder(64)
	syntheticStep(r, 0)
	syntheticStep(r, 1000)
	syntheticStep(r, 2000)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChromeTrace(path, r.spans, 2); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name    string
			Ph      string
			Ts, Dur float64
		}
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 20 {
		t.Fatalf("%d events, want the last two steps' 20", len(doc.TraceEvents))
	}
	if e := doc.TraceEvents[0]; e.Name != "step" || e.Ts != 1.0 || e.Dur != 0.1 {
		t.Errorf("first event %+v, want step at 1.0us for 0.1us", e)
	}
}
