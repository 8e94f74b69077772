package zero

import (
	"math"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/tensor"
)

// runAccum trains with StepAccum over the given micro-batch count.
func runAccum(t *testing.T, ecfg Config, micros, steps int) runOutput {
	t.Helper()
	mcfg := testCfg()
	var out runOutput
	var mu sync.Mutex
	comm.Run(testRanks, func(c *comm.Comm) {
		e, err := NewShardedEngine(ecfg, c, model.MustGPT(mcfg), Attachments{})
		if err != nil {
			t.Error(err)
			return
		}
		var losses []float64
		for s := 0; s < steps; s++ {
			mt := make([][]int, micros)
			mg := make([][]int, micros)
			for m := 0; m < micros; m++ {
				rng := tensor.NewRNG(uint64(5000 + s*1000 + m*100 + c.Rank()))
				mt[m], mg[m] = model.SyntheticBatch(rng, mcfg, testBatch)
			}
			losses = append(losses, mustStep(t)(e.StepAccum(mt, mg, testBatch)).Loss)
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

// Gradient accumulation keeps every engine bit-identical to DDP. The
// +overlap rows fold each micro-batch's asynchronous reductions partly
// inside backward (the model has more parameters than reduceWindow) and
// the rest at the micro-batch boundary.
func TestAccumulationBitIdenticalAcrossEngines(t *testing.T) {
	const micros, steps = 3, 3
	ddp := runAccum(t, Config{Stage: StageDDP, LossScale: 128, Seed: 21}, micros, steps)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"zero1", Config{Stage: Stage1, LossScale: 128, Seed: 21}},
		{"zero2", Config{Stage: Stage2, LossScale: 128, Seed: 21}},
		{"zero2+overlap", Config{Stage: Stage2, LossScale: 128, Seed: 21, Overlap: true}},
		{"zero3", Config{Stage: Stage3, LossScale: 128, Seed: 21}},
		{"zero3+overlap", Config{Stage: Stage3, LossScale: 128, Seed: 21, Overlap: true, PrefetchDepth: 2}},
	} {
		got := runAccum(t, tc.cfg, micros, steps)
		assertSameTrajectory(t, tc.name+"+accum", ddp, got)
	}
}

// Accumulating the same micro-batch twice equals one step with doubled
// gradients — i.e. the same step as a single micro (gradients are averaged
// over micros).
func TestAccumulationAveragesMicroGradients(t *testing.T) {
	mcfg := testCfg()
	tokens, targets := makeBatches(mcfg, 1, testRanks, testBatch)
	var single, double []float64
	run := func(micros int) []float64 {
		var out []float64
		var mu sync.Mutex
		comm.Run(testRanks, func(c *comm.Comm) {
			g := model.MustGPT(mcfg)
			e, _ := NewZ3Engine(Config{LossScale: 64, Seed: 31}, c, g)
			mt := make([][]int, micros)
			mg := make([][]int, micros)
			for m := 0; m < micros; m++ {
				mt[m], mg[m] = tokens[0][c.Rank()], targets[0][c.Rank()]
			}
			res := mustStep(t)(e.StepAccum(mt, mg, testBatch))
			p := e.FullParams()
			if c.Rank() == 0 {
				mu.Lock()
				out = append(out, res.Loss)
				for _, v := range p["lnf.g"] {
					out = append(out, float64(v))
				}
				mu.Unlock()
			}
		})
		return out
	}
	single = run(1)
	double = run(2)
	for i := range single {
		if single[i] != double[i] {
			t.Fatalf("duplicated-micro step diverged at %d: %g vs %g", i, single[i], double[i])
		}
	}
}

// Clipping: bit-identical across engines, and the post-clip norm is bounded.
func TestClippingBitIdenticalAndBounded(t *testing.T) {
	const clip = 0.05 // small enough to always engage
	ddp := runEngine(t, testCfg(), Config{Stage: StageDDP, LossScale: 128, Seed: 42, ClipNorm: clip}, false)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"zero1+clip", Config{Stage: Stage1, LossScale: 128, Seed: 42, ClipNorm: clip}},
		{"zero2+clip", Config{Stage: Stage2, LossScale: 128, Seed: 42, ClipNorm: clip}},
		{"zero3+clip", Config{Stage: Stage3, LossScale: 128, Seed: 42, ClipNorm: clip}},
	} {
		got := runEngine(t, testCfg(), tc.cfg, false)
		assertSameTrajectory(t, tc.name, ddp, got)
	}
	// Clipping changes the trajectory vs unclipped.
	unclipped := runEngine(t, testCfg(), Config{Stage: StageDDP, LossScale: 128, Seed: 42}, false)
	same := true
	for name, av := range ddp.params {
		for i := range av {
			if av[i] != unclipped.params[name][i] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("clip=0.05 did not change the trajectory — clipping inert?")
	}
}

func TestClipFactorMath(t *testing.T) {
	if f := ClipFactor(100, 0); f != 1 {
		t.Fatalf("disabled clip factor = %g", f)
	}
	if f := ClipFactor(4, 3); f != 1 {
		t.Fatalf("within-bounds factor = %g", f)
	}
	// norm = sqrt(100) = 10, clip 5 → factor 0.5.
	if f := ClipFactor(100, 5); math.Abs(f-0.5) > 1e-15 {
		t.Fatalf("factor = %g, want 0.5", f)
	}
	if s := SumSq([]float32{3, 4}); s != 25 {
		t.Fatalf("SumSq = %g", s)
	}
}

func TestStepAccumValidatesInput(t *testing.T) {
	comm.Run(1, func(c *comm.Comm) {
		g := model.MustGPT(testCfg())
		e, _ := NewDPEngine(Config{LossScale: 1, Seed: 1}, c, g)
		defer func() {
			if recover() == nil {
				t.Error("mismatched micro slices accepted")
			}
		}()
		e.StepAccum([][]int{{1}}, nil, 1)
	})
}

// mustStep unwraps a sharded-engine step that cannot fail (resident shards,
// nothing attached).
func mustStep(t *testing.T) func(StepResult, error) StepResult {
	return func(res StepResult, err error) StepResult {
		if err != nil {
			t.Error(err)
		}
		return res
	}
}
