package core

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/module"
	"repro/internal/tensor"
	"repro/internal/zero"
)

// The Fig. 6b protocol, functionally: under a pre-fragmented allocator the
// dense operator OOMs with ErrFragmented while the tiled one trains, and
// both produce identical outputs.
func TestFig6bFunctionalTilingUnderFragmentation(t *testing.T) {
	const in, out, rows = 64, 256, 4
	const chunk = 8 << 10 // 8 KiB contiguous chunks
	denseBytes := int64(in * out * 2)
	if denseBytes <= chunk {
		t.Fatal("test sizing wrong: dense must exceed chunk")
	}

	x := tensor.New(tensor.FP32, rows, in)
	tensor.NewRNG(11).FillNormal(x.Float32s(), 1)

	// Dense fails.
	alloc := mem.NewAllocator(1 << 20)
	alloc.PreFragment(chunk)
	hooks := NewAllocHooks(alloc, 77)
	rt := module.NewRuntime(hooks)
	dense := model.NewTiledLinear("op", in, out, 1, true, 0.2)
	err := RunUnderBudget(func() { rt.Forward(dense, x) })
	if err == nil {
		t.Fatal("dense gather under fragmentation succeeded")
	}
	if !errors.Is(err, mem.ErrFragmented) {
		t.Fatalf("want ErrFragmented, got %v", err)
	}

	// Tiled succeeds (per-tile fp16 footprint fits in one chunk).
	alloc2 := mem.NewAllocator(1 << 20)
	alloc2.PreFragment(chunk)
	hooks2 := NewAllocHooks(alloc2, 77)
	rt2 := module.NewRuntime(hooks2)
	tiled := model.NewTiledLinear("op", in, out, 8, true, 0.2)
	if tiled.MaxParamBytes() > chunk {
		t.Fatal("test sizing wrong: tile must fit in chunk")
	}
	var yTiled *tensor.Tensor
	err = RunUnderBudget(func() {
		yTiled = rt2.Forward(tiled, x)
		rt2.Backward(tiled, yTiled.Clone())
	})
	if err != nil {
		t.Fatalf("tiled run failed: %v", err)
	}

	// Same values as an unbudgeted dense run with the same param names.
	ref := model.NewTiledLinear("op", in, out, 8, true, 0.2)
	for _, p := range module.AllParams(ref) {
		p.SetData(model.InitValues(p, 77))
	}
	yRef := module.NewRuntime(nil).Forward(ref, x)
	if d := tensor.MaxAbsDiff(yTiled, yRef); d != 0 {
		t.Fatalf("budgeted tiled output differs by %g", d)
	}
	// Sequential fetch-and-release: peak live is at most a couple of tiles,
	// far below the dense footprint.
	if hooks2.PeakLive >= denseBytes {
		t.Fatalf("peak live %d not below dense %d", hooks2.PeakLive, denseBytes)
	}
}

// runZero trains a zero-package engine (DP family or Z3) on the shared
// batches and returns rank 0's observations.
func runZero(t *testing.T, mcfg model.Config, zcfg zero.Config) trajectory {
	t.Helper()
	zcfg.LossScale = 256
	zcfg.Seed = 42
	tokens, targets := makeBatches(mcfg, testSteps, testRanks, testBatch)
	var out trajectory
	var mu sync.Mutex
	comm.Run(testRanks, func(c *comm.Comm) {
		g := model.MustGPT(mcfg)
		var step func(tok, tgt []int) zero.StepResult
		var full func() map[string][]float32
		stats := func() Stats { return Stats{} }
		if zcfg.Stage == zero.Stage3 {
			e, err := zero.NewZ3Engine(zcfg, c, g)
			if err != nil {
				t.Error(err)
				return
			}
			step = func(tok, tgt []int) zero.StepResult { return e.Step(tok, tgt, testBatch) }
			full, stats = e.FullParams, e.Stats
		} else {
			e, err := zero.NewDPEngine(zcfg, c, g)
			if err != nil {
				t.Error(err)
				return
			}
			step = func(tok, tgt []int) zero.StepResult { return e.Step(tok, tgt, testBatch) }
			full = e.FullParams
		}
		var losses []float64
		for s := 0; s < testSteps; s++ {
			losses = append(losses, step(tokens[s][c.Rank()], targets[s][c.Rank()]).Loss)
		}
		p := full()
		if c.Rank() == 0 {
			mu.Lock()
			out = trajectory{losses: losses, params: p, stats: stats()}
			mu.Unlock()
		}
	})
	return out
}

// The acceptance claim for model-wide tiling: for a fixed tiling factor,
// every engine — DDP, ZeRO-1/2/3, ZeRO-Infinity on CPU and NVMe (with
// prefetch and overlap) — trains the tiled model bit-identically. Tiling is
// model structure, not an engine feature, so no engine special-cases it.
func TestTiledModelBitIdenticalAcrossEngines(t *testing.T) {
	mcfg := testModelCfg(false)
	mcfg.Tiling = 4
	ddp := runZero(t, mcfg, zero.Config{Stage: zero.StageDDP})
	if len(ddp.losses) != testSteps {
		t.Fatalf("ddp ran %d steps", len(ddp.losses))
	}

	for _, tc := range []struct {
		name string
		cfg  zero.Config
	}{
		{"zero1", zero.Config{Stage: zero.Stage1}},
		{"zero2", zero.Config{Stage: zero.Stage2}},
		{"zero-offload", zero.Config{Stage: zero.Stage2, OffloadOptimizer: true}},
		{"zero3", zero.Config{Stage: zero.Stage3}},
		{"zero3-overlap", zero.Config{Stage: zero.Stage3, PrefetchDepth: 2, Overlap: true}},
	} {
		got := runZero(t, mcfg, tc.cfg)
		assertSame(t, tc.name, ddp, got)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"infinity-cpu", Config{Params: zero.OnCPU, Optimizer: zero.OnCPU}},
		{"infinity-nvme", Config{Params: zero.OnNVMe, Optimizer: zero.OnNVMe, PrefetchDepth: 2}},
		{"infinity-nvme-overlap", Config{Params: zero.OnNVMe, Optimizer: zero.OnNVMe,
			PrefetchDepth: 2, Overlap: true}},
	} {
		got := runInfinity(t, mcfg, tc.cfg)
		assertSame(t, tc.name, ddp, got)
	}
}

// Tiling divides the Infinity engine's max live parameter bytes by ~the
// tile factor: the largest leaf (fc1: W+B) dominates the dense working set,
// and each of its tiles is a quarter of it.
func TestTilingCutsMaxLiveParamBytes(t *testing.T) {
	mcfg := model.Config{Vocab: 16, Hidden: 32, Heads: 2, Seq: 6, Layers: 1}
	dense := runInfinity(t, mcfg, Config{Params: zero.OnCPU, Optimizer: zero.OnCPU})

	tcfg := mcfg
	tcfg.Tiling = 4
	tiled := runInfinity(t, tcfg, Config{Params: zero.OnCPU, Optimizer: zero.OnCPU})

	dm, tm := dense.stats.MaxLiveParamBytes, tiled.stats.MaxLiveParamBytes
	if dm == 0 || tm == 0 {
		t.Fatalf("missing MaxLiveParamBytes: dense %d tiled %d", dm, tm)
	}
	// Dense peak: fc1 weight+bias = (32*128 + 128) fp16 values.
	if want := int64(32*128+128) * 2; dm != want {
		t.Fatalf("dense max live = %d, want %d", dm, want)
	}
	if tm*3 > dm {
		t.Fatalf("tiling cut max live only %d -> %d (want ~%dx reduction)", dm, tm, tcfg.Tiling)
	}
}

// The real-engine Fig. 6b: a dense GPT OOMs (ErrFragmented) gathering its
// projections under a pre-fragmented GPU budget; the tiled model — same
// budget, same fragmentation — trains.
func TestFig6bRealEngineDenseOOMsTiledTrains(t *testing.T) {
	mcfg := model.Config{Vocab: 16, Hidden: 32, Heads: 2, Seq: 6, Layers: 1}
	tokens, targets := makeBatches(mcfg, 1, 2, testBatch)
	budget := Config{Params: zero.OnCPU, Optimizer: zero.OnCPU,
		GPUMemory: 1 << 20, PreFragment: 4 << 10, LossScale: 256, Seed: 42}

	run := func(mcfg model.Config) error {
		var mu sync.Mutex
		var firstErr error
		comm.Run(2, func(c *comm.Comm) {
			g := model.MustGPT(mcfg)
			e, err := NewInfinityEngine(budget, c, g)
			if err != nil {
				t.Error(err)
				return
			}
			defer e.Close()
			if _, serr := e.Step(tokens[0][c.Rank()], targets[0][c.Rank()], testBatch); serr != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = serr
				}
				mu.Unlock()
			}
		})
		return firstErr
	}

	if err := run(mcfg); err == nil {
		t.Fatal("dense model trained under the fragmented budget")
	} else if !errors.Is(err, mem.ErrFragmented) {
		t.Fatalf("dense model failed for the wrong reason: %v", err)
	}

	tcfg := mcfg
	tcfg.Tiling = 4
	if err := run(tcfg); err != nil {
		t.Fatalf("tiled model failed under the fragmented budget: %v", err)
	}
}
