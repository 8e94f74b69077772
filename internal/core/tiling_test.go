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
