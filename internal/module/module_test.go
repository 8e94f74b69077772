package module

import (
	"testing"

	"repro/internal/tensor"
)

type fakeLayer struct {
	Base
	calls *[]string
}

func (f *fakeLayer) Forward(rt *Runtime, x *tensor.Tensor) *tensor.Tensor {
	*f.calls = append(*f.calls, "fwd:"+f.ModName)
	return x
}

func (f *fakeLayer) Backward(rt *Runtime, dy *tensor.Tensor) *tensor.Tensor {
	*f.calls = append(*f.calls, "bwd:"+f.ModName)
	return dy
}

type recordingHooks struct{ calls *[]string }

func (h recordingHooks) PreForward(m Module)   { *h.calls = append(*h.calls, "preF:"+m.Name()) }
func (h recordingHooks) PostForward(m Module)  { *h.calls = append(*h.calls, "postF:"+m.Name()) }
func (h recordingHooks) PreBackward(m Module)  { *h.calls = append(*h.calls, "preB:"+m.Name()) }
func (h recordingHooks) PostBackward(m Module) { *h.calls = append(*h.calls, "postB:"+m.Name()) }

func TestRuntimeHookOrdering(t *testing.T) {
	var calls []string
	l := &fakeLayer{calls: &calls}
	l.ModName = "leaf"
	rt := NewRuntime(recordingHooks{&calls})
	x := tensor.New(tensor.FP32, 2)
	rt.Forward(l, x)
	rt.Backward(l, x)
	want := []string{"preF:leaf", "fwd:leaf", "postF:leaf", "preB:leaf", "bwd:leaf", "postB:leaf"}
	if len(calls) != len(want) {
		t.Fatalf("calls %v", calls)
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Fatalf("call %d = %q, want %q", i, calls[i], want[i])
		}
	}
}

func TestWithForwardBackwardFireHooks(t *testing.T) {
	var calls []string
	m := &Base{ModName: "emb"}
	rt := NewRuntime(recordingHooks{&calls})
	ran := false
	rt.WithForward(m, func() { ran = true })
	rt.WithBackward(m, func() {})
	if !ran {
		t.Fatal("fn not run")
	}
	want := []string{"preF:emb", "postF:emb", "preB:emb", "postB:emb"}
	for i, w := range want {
		if calls[i] != w {
			t.Fatalf("call %d = %q, want %q", i, calls[i], w)
		}
	}
}

func TestWalkAndAllParamsDeterministicOrder(t *testing.T) {
	leaf1 := &Base{ModName: "a", OwnParams: []*Param{NewParam("a.w", 0.1, 2)}}
	leaf2 := &Base{ModName: "b", OwnParams: []*Param{NewParam("b.w", 0.1, 3), NewParam("b.b", 0, 3)}}
	root := &Base{ModName: "root", Kids: []Module{leaf1, leaf2}}

	var visited []string
	Walk(root, func(m Module) { visited = append(visited, m.Name()) })
	if len(visited) != 3 || visited[0] != "root" || visited[1] != "a" || visited[2] != "b" {
		t.Fatalf("walk order %v", visited)
	}
	ps := AllParams(root)
	if len(ps) != 3 || ps[0].Name != "a.w" || ps[2].Name != "b.b" {
		t.Fatalf("param order: %v %v %v", ps[0].Name, ps[1].Name, ps[2].Name)
	}
	if n := NumParams(root); n != 8 {
		t.Fatalf("NumParams = %d", n)
	}
}

func TestParamLifecycle(t *testing.T) {
	p := NewParam("w", 0.1, 2, 3)
	if p.Len() != 6 || p.FP16Bytes() != 12 {
		t.Fatalf("len=%d bytes=%d", p.Len(), p.FP16Bytes())
	}
	if p.Materialized() {
		t.Fatal("new param materialized")
	}
	p.SetData(make([]float32, 6))
	if !p.Materialized() {
		t.Fatal("SetData did not materialize")
	}
	g := p.Grad()
	g[0] = 5
	if !p.HasGrad() {
		t.Fatal("HasGrad false")
	}
	p.ZeroGrad()
	if p.Grad()[0] != 0 {
		t.Fatal("ZeroGrad failed")
	}
	p.ReleaseGrad()
	if p.HasGrad() {
		t.Fatal("ReleaseGrad failed")
	}
	p.ReleaseData()
	if p.Materialized() {
		t.Fatal("ReleaseData failed")
	}
}

func TestParamSetDataWrongLenPanics(t *testing.T) {
	p := NewParam("w", 0.1, 4)
	defer func() {
		if recover() == nil {
			t.Error("wrong-length SetData did not panic")
		}
	}()
	p.SetData(make([]float32, 3))
}

func TestParamOnDemandCounts(t *testing.T) {
	p := NewParam("w", 0.1, 2)
	n := 0
	p.SetOnDemand(func(q *Param) {
		n++
		q.SetData(make([]float32, 2))
	})
	p.Data()
	p.Data() // materialized now: no second trigger
	if n != 1 || p.OnDemandGathers() != 1 {
		t.Fatalf("onDemand fired %d times (counter %d)", n, p.OnDemandGathers())
	}
}

func TestOnDemandHandlerMustMaterialize(t *testing.T) {
	p := NewParam("w", 0.1, 2)
	p.SetOnDemand(func(q *Param) {})
	defer func() {
		if recover() == nil {
			t.Error("lazy handler accepted")
		}
	}()
	p.Data()
}

func TestSaveActivationsToggle(t *testing.T) {
	rt := NewRuntime(nil)
	if !rt.SaveActivations() {
		t.Fatal("default save off")
	}
	if prev := rt.SetSaveActivations(false); !prev {
		t.Fatal("SetSaveActivations returned wrong prev")
	}
	if rt.SaveActivations() {
		t.Fatal("save still on")
	}
}

type mapStore struct {
	m    map[int]*tensor.Tensor
	next int
}

func (s *mapStore) Put(t *tensor.Tensor) int {
	s.next++
	s.m[s.next] = t
	return s.next
}

func (s *mapStore) Get(h int) *tensor.Tensor {
	t := s.m[h]
	delete(s.m, h)
	return t
}

func (s *mapStore) Reset() { clear(s.m) }

func TestCheckpointStorePlumbing(t *testing.T) {
	rt := NewRuntime(nil)
	if _, off := rt.PutCheckpoint(tensor.New(tensor.FP32, 1)); off {
		t.Fatal("no store installed but offloaded")
	}
	store := &mapStore{m: make(map[int]*tensor.Tensor)}
	rt.SetCheckpointStore(store)
	x := tensor.FromSlice([]float32{7}, 1)
	h, off := rt.PutCheckpoint(x)
	if !off {
		t.Fatal("store installed but not offloaded")
	}
	got := rt.GetCheckpoint(h)
	if got.At(0) != 7 {
		t.Fatalf("checkpoint round trip = %g", got.At(0))
	}
}

func TestGetCheckpointWithoutStorePanics(t *testing.T) {
	rt := NewRuntime(nil)
	defer func() {
		if recover() == nil {
			t.Error("GetCheckpoint without store did not panic")
		}
	}()
	rt.GetCheckpoint(1)
}
