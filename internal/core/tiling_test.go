package core

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/zero"
)

// runZero trains a zero-package engine (any stage) on the shared batches
// and returns rank 0's observations.
func runZero(t *testing.T, mcfg model.Config, zcfg zero.Config) trajectory {
	t.Helper()
	zcfg.LossScale = 256
	zcfg.Seed = 42
	tokens, targets := makeBatches(mcfg, testSteps, testRanks, testBatch)
	var out trajectory
	var mu sync.Mutex
	comm.Run(testRanks, func(c *comm.Comm) {
		e, err := zero.NewShardedEngine(zcfg, c, model.MustGPT(mcfg), zero.Attachments{})
		if err != nil {
			t.Error(err)
			return
		}
		var losses []float64
		for s := 0; s < testSteps; s++ {
			res, err := e.Step(tokens[s][c.Rank()], targets[s][c.Rank()], testBatch)
			if err != nil {
				t.Error(err)
			}
			losses = append(losses, res.Loss)
		}
		p := e.FullParams()
		if c.Rank() == 0 {
			mu.Lock()
			out = trajectory{losses: losses, params: p, stats: e.Stats()}
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
// budget, same fragmentation — trains, with the loss of the unbudgeted
// tiled step: a budget accounts bytes and changes no value.
func TestFig6bRealEngineDenseOOMsTiledTrains(t *testing.T) {
	mcfg := model.Config{Vocab: 16, Hidden: 32, Heads: 2, Seq: 6, Layers: 1}
	tokens, targets := makeBatches(mcfg, 1, 2, testBatch)
	free := Config{Params: zero.OnCPU, Optimizer: zero.OnCPU, LossScale: 256, Seed: 42}
	budget := free
	budget.GPUMemory, budget.PreFragment = 1<<20, 4<<10

	run := func(mcfg model.Config, cfg Config) (loss float64, err error) {
		var mu sync.Mutex
		comm.Run(2, func(c *comm.Comm) {
			g := model.MustGPT(mcfg)
			e, nerr := NewInfinityEngine(cfg, c, g)
			if nerr != nil {
				t.Error(nerr)
				return
			}
			defer e.Close()
			res, serr := e.Step(tokens[0][c.Rank()], targets[0][c.Rank()], testBatch)
			mu.Lock()
			defer mu.Unlock()
			if serr != nil && err == nil {
				err = serr
			}
			if c.Rank() == 0 {
				loss = res.Loss
			}
		})
		return loss, err
	}

	if _, err := run(mcfg, budget); err == nil {
		t.Fatal("dense model trained under the fragmented budget")
	} else if !errors.Is(err, mem.ErrFragmented) {
		t.Fatalf("dense model failed for the wrong reason: %v", err)
	}

	tcfg := mcfg
	tcfg.Tiling = 4
	budgeted, err := run(tcfg, budget)
	if err != nil {
		t.Fatalf("tiled model failed under the fragmented budget: %v", err)
	}
	unbudgeted, err := run(tcfg, free)
	if err != nil {
		t.Fatalf("tiled model failed without a budget: %v", err)
	}
	if budgeted != unbudgeted {
		t.Fatalf("budgeted tiled loss %.17g, unbudgeted %.17g", budgeted, unbudgeted)
	}
}
