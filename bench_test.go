// Repository-level benchmarks: one per paper table/figure, delegating to the
// experiment harness (go test -bench=Fig -benchmem), plus end-to-end
// training-step benchmarks for every engine. Per-kernel microbenchmarks live
// next to their packages (tensor, nvme, optim, comm).
package zeroinf_test

import (
	"fmt"
	"io"
	"testing"

	zeroinf "repro"
	"repro/internal/harness"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := harness.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// Analytic and simulated artifacts.

func BenchmarkFig1MaxModelSize(b *testing.B)        { benchExperiment(b, "fig1") }
func BenchmarkFig2aMemoryRequirements(b *testing.B) { benchExperiment(b, "fig2a") }
func BenchmarkFig2bHardwareEnvelope(b *testing.B)   { benchExperiment(b, "fig2b") }
func BenchmarkFig3aParamGradBandwidth(b *testing.B) { benchExperiment(b, "fig3a") }
func BenchmarkFig3bOptimizerBandwidth(b *testing.B) { benchExperiment(b, "fig3b") }
func BenchmarkFig3cActCkptBandwidth(b *testing.B)   { benchExperiment(b, "fig3c") }
func BenchmarkFig5aThroughput512GPUs(b *testing.B)  { benchExperiment(b, "fig5a") }
func BenchmarkFig5bSuperlinearScaling(b *testing.B) { benchExperiment(b, "fig5b") }
func BenchmarkFig5cSingleNode(b *testing.B)         { benchExperiment(b, "fig5c") }
func BenchmarkFig6aMaxSizePerStrategy(b *testing.B) { benchExperiment(b, "fig6a") }
func BenchmarkFig6bTilingAnalytic(b *testing.B)     { benchExperiment(b, "fig6b-analytic") }
func BenchmarkFig6cGradientOffload(b *testing.B)    { benchExperiment(b, "fig6c") }
func BenchmarkFig6dOverlapAblation(b *testing.B)    { benchExperiment(b, "fig6d") }
func BenchmarkFig6eActCkptOffload(b *testing.B)     { benchExperiment(b, "fig6e") }
func BenchmarkTab1Configurations(b *testing.B)      { benchExperiment(b, "tab1") }
func BenchmarkTab2Strategies(b *testing.B)          { benchExperiment(b, "tab2") }
func BenchmarkTab3FutureBandwidth(b *testing.B)     { benchExperiment(b, "tab3") }

// Functional verification artifacts.

func BenchmarkEquivAllEngines(b *testing.B) { benchExperiment(b, "equiv") }
func BenchmarkFig6bEngine(b *testing.B)     { benchExperiment(b, "fig6b-engine") }
func BenchmarkNVMeBandwidth(b *testing.B)   { benchExperiment(b, "nvme-bw") }

// Memory-centric tiling on/off: same model function shape, dense vs tiled
// operators on the ZeRO-Infinity engine. Tiling trades a lower max live
// parameter working set for more (smaller) gathers per step.
func BenchmarkTilingStep(b *testing.B) {
	for _, tiles := range []int{1, 4} {
		b.Run(fmt.Sprintf("tiles=%d", tiles), func(b *testing.B) {
			mcfg := zeroinf.ModelConfig{Vocab: 16, Hidden: 32, Heads: 2, Seq: 8, Layers: 2, Tiling: tiles}
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := zeroinf.Train(zeroinf.TrainOptions{
				Model: mcfg,
				Engine: zeroinf.EngineConfig{
					Infinity: true, Params: zeroinf.OnCPU, Optimizer: zeroinf.OnCPU,
					LossScale: 64, Seed: 1,
				},
				Ranks: 4, Steps: b.N, BatchPerRank: 2,
			}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// End-to-end training step per engine (4 ranks, tiny model): measures the
// real functional stack — goroutine collectives, fp16 round-trips, hooks,
// and for Infinity the async NVMe engine and prefetcher.

func benchTrainingSteps(b *testing.B, ecfg zeroinf.EngineConfig) {
	b.Helper()
	mcfg := zeroinf.ModelConfig{Vocab: 16, Hidden: 16, Heads: 2, Seq: 6, Layers: 2}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := zeroinf.Train(zeroinf.TrainOptions{
		Model: mcfg, Engine: ecfg, Ranks: 4, Steps: b.N, BatchPerRank: 2,
	}); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkStepDDP(b *testing.B) {
	benchTrainingSteps(b, zeroinf.EngineConfig{Stage: zeroinf.StageDDP, LossScale: 64, Seed: 1})
}

func BenchmarkStepZeRO2(b *testing.B) {
	benchTrainingSteps(b, zeroinf.EngineConfig{Stage: zeroinf.Stage2, LossScale: 64, Seed: 1})
}

func BenchmarkStepZeRO3(b *testing.B) {
	benchTrainingSteps(b, zeroinf.EngineConfig{Stage: zeroinf.Stage3, LossScale: 64, Seed: 1})
}

func BenchmarkStepInfinityCPU(b *testing.B) {
	benchTrainingSteps(b, zeroinf.EngineConfig{
		Infinity: true, Params: zeroinf.OnCPU, Optimizer: zeroinf.OnCPU, LossScale: 64, Seed: 1})
}

func BenchmarkStepInfinityNVMe(b *testing.B) {
	benchTrainingSteps(b, zeroinf.EngineConfig{
		Infinity: true, Params: zeroinf.OnNVMe, Optimizer: zeroinf.OnNVMe,
		PrefetchDepth: 2, LossScale: 64, Seed: 1})
}
