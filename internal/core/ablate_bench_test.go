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
