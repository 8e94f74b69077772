package zero

import (
	"math"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/model"
)

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
