package zero

import (
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/model"
)

// runEngineHeap mirrors runEngine (engines_test.go) but strips the step
// arena right after construction, so every model-layer allocation falls back
// to tensor.New/make — the heap baseline the arena-backed engines must match
// bit for bit.
func runEngineHeap(t *testing.T, mcfg model.Config, ecfg Config, ckpt bool) runOutput {
	t.Helper()
	mcfg.CheckpointActivations = ckpt
	tokens, targets := makeBatches(mcfg, testSteps, testRanks, testBatch)
	var out runOutput
	var mu sync.Mutex
	comm.Run(testRanks, func(c *comm.Comm) {
		e, err := NewShardedEngine(ecfg, c, model.MustGPT(mcfg), Attachments{})
		if err != nil {
			t.Error(err)
			return
		}
		e.Runtime().SetStepArena(nil)
		var losses []float64
		for s := 0; s < testSteps; s++ {
			losses = append(losses, mustStep(t)(e.Step(tokens[s][c.Rank()], targets[s][c.Rank()], testBatch)).Loss)
		}
		params := e.FullParams()
		if c.Rank() == 0 {
			mu.Lock()
			out = runOutput{losses: losses, params: params}
			mu.Unlock()
		}
	})
	return out
}

// TestArenaMatchesHeapTrajectory closes the loop the model-layer test
// (model.TestArenaBitIdenticalToHeap) opens: under the real partitioned
// engines — gather/release hooks, overlap, prefetch, checkpoint recompute —
// the arena-backed step must produce the same losses and final parameters,
// bit for bit, as the same engine with its arena removed.
func TestArenaMatchesHeapTrajectory(t *testing.T) {
	cases := []struct {
		name   string
		ecfg   Config
		tiling int
		ckpt   bool
	}{
		{"ddp", Config{Stage: StageDDP, LossScale: 256, Seed: 42}, 1, false},
		{"zero2", Config{Stage: Stage2, LossScale: 256, Seed: 42}, 1, false},
		{"zero3-overlap", Config{Stage: Stage3, LossScale: 256, Seed: 42, Overlap: true, PrefetchDepth: 2}, 1, false},
		{"zero3-tiled-ckpt", Config{Stage: Stage3, LossScale: 256, Seed: 42}, 2, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mcfg := testCfg()
			mcfg.Tiling = tc.tiling
			arena := runEngine(t, mcfg, tc.ecfg, tc.ckpt)
			heap := runEngineHeap(t, mcfg, tc.ecfg, tc.ckpt)
			assertSameTrajectory(t, tc.name+" arena-vs-heap", arena, heap)
		})
	}
}
