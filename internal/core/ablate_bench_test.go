package core

import (
	"fmt"
	"testing"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/zero"
)

// Ablation benchmarks over the infinity offload engine's design knobs: the
// prefetch depth (overlap-centric design) and the state placement. Run with:
//
//	go test -bench=Ablate -benchmem ./internal/core/
func benchInfinitySteps(b *testing.B, cfg Config) {
	b.Helper()
	mcfg := model.Config{Vocab: 32, Hidden: 32, Heads: 4, Seq: 8, Layers: 2}
	cfg.LossScale = 64
	cfg.Seed = 1
	tokens, targets := makeBatches(mcfg, 1, 2, testBatch)
	b.ReportAllocs()
	b.ResetTimer()
	comm.Run(2, func(c *comm.Comm) {
		g := model.MustGPT(mcfg)
		e, err := NewInfinityEngine(cfg, c, g)
		if err != nil {
			b.Error(err)
			return
		}
		defer e.Close()
		for i := 0; i < b.N; i++ {
			if _, serr := e.Step(tokens[0][c.Rank()], targets[0][c.Rank()], testBatch); serr != nil {
				b.Error(serr)
				return
			}
		}
	})
}

func BenchmarkAblatePrefetchDepth(b *testing.B) {
	for _, depth := range []int{0, 1, 3} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			benchInfinitySteps(b, Config{
				Params: zero.OnNVMe, Optimizer: zero.OnNVMe, PrefetchDepth: depth,
			})
		})
	}
}

func BenchmarkAblatePlacement(b *testing.B) {
	placements := []struct {
		name       string
		params, op zero.Placement
	}{
		{"gpu-gpu", zero.OnGPU, zero.OnGPU},
		{"cpu-cpu", zero.OnCPU, zero.OnCPU},
		{"nvme-nvme", zero.OnNVMe, zero.OnNVMe},
	}
	for _, p := range placements {
		b.Run(p.name, func(b *testing.B) {
			benchInfinitySteps(b, Config{Params: p.params, Optimizer: p.op, PrefetchDepth: 2})
		})
	}
}

// Gradient accumulation under every placement stays bit-identical to DDP.
func TestAccumulationMatchesDDPAcrossPlacements(t *testing.T) {
	mcfg := testModelCfg(false)
	const micros, steps = 2, 2
	run := func(infinity bool, cfg Config) []float64 {
		tokens, targets := makeBatches(mcfg, steps*micros, testRanks, testBatch)
		var losses []float64
		comm.Run(testRanks, func(c *comm.Comm) {
			g := model.MustGPT(mcfg)
			var step func(mt, mg [][]int) (zero.StepResult, error)
			if infinity {
				e, err := NewInfinityEngine(cfg, c, g)
				if err != nil {
					t.Error(err)
					return
				}
				defer e.Close()
				step = func(mt, mg [][]int) (zero.StepResult, error) { return e.StepAccum(mt, mg, testBatch) }
			} else {
				e, err := zero.NewDPEngine(zero.Config{LossScale: 128, Seed: 42}, c, g)
				if err != nil {
					t.Error(err)
					return
				}
				step = func(mt, mg [][]int) (zero.StepResult, error) { return e.StepAccum(mt, mg, testBatch) }
			}
			var local []float64
			for s := 0; s < steps; s++ {
				mt := make([][]int, micros)
				mg := make([][]int, micros)
				for m := 0; m < micros; m++ {
					mt[m] = tokens[s*micros+m][c.Rank()]
					mg[m] = targets[s*micros+m][c.Rank()]
				}
				res, err := step(mt, mg)
				if err != nil {
					t.Error(err)
					return
				}
				local = append(local, res.Loss)
			}
			if c.Rank() == 0 {
				losses = local
			}
		})
		return losses
	}
	ddp := run(false, Config{})
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"cpu", Config{Params: zero.OnCPU, Optimizer: zero.OnCPU, LossScale: 128, Seed: 42}},
		{"nvme", Config{Params: zero.OnNVMe, Optimizer: zero.OnNVMe, PrefetchDepth: 2, LossScale: 128, Seed: 42}},
	} {
		got := run(true, tc.cfg)
		for i := range ddp {
			if ddp[i] != got[i] {
				t.Fatalf("%s accum diverged at step %d: %.17g vs %.17g", tc.name, i, ddp[i], got[i])
			}
		}
	}
}
