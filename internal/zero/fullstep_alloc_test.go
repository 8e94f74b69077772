package zero_test

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/tensor"
	"repro/internal/zero"
)

// TestFullStepZeroAllocs extends TestSteadyStateZeroAllocs from the engine
// path to the full training step: with the step-scoped activation arena
// installed, a steady-state step of the real GPT model — forward activations,
// backward grad temporaries, softmax/attention scratch, loss head — performs
// zero heap allocations, not just the engine+comm+tensor slice of it. The
// stub subtest keeps the engine-only contract pinned alongside. Same rows
// and measurement discipline as the engine test (allocFloor), and the
// engine's own per-step counter must agree.
func TestFullStepZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	mcfg := model.Config{Vocab: 16, Hidden: 16, Heads: 2, Seq: 6, Layers: 2}
	for _, row := range allocEngines {
		t.Run(row.name+"/stub", func(t *testing.T) {
			minAllocs, minPerStep := allocFloor(t, func(c *comm.Comm) (func(), func() uint64, error) {
				step, perStep, err := row.new(t, c, zero.NewAllocFreeStub(4, 51), 1, 11)
				tok := make([]int, 1)
				tgt := make([]int, 1)
				return func() { step(tok, tgt, 1) }, perStep, err
			})
			if minAllocs != 0 || minPerStep != 0 {
				t.Fatalf("stub full step: min mallocs %d, min AllocsPerStep %d, want 0/0", minAllocs, minPerStep)
			}
		})
		t.Run(row.name+"/gpt", func(t *testing.T) {
			minAllocs, minPerStep := allocFloor(t, func(c *comm.Comm) (func(), func() uint64, error) {
				step, perStep, err := row.new(t, c, model.MustGPT(mcfg), 256, 42)
				tok, tgt := model.SyntheticBatch(tensor.NewRNG(uint64(700+c.Rank())), mcfg, 2)
				return func() { step(tok, tgt, 2) }, perStep, err
			})
			if minAllocs != 0 {
				t.Fatalf("steady-state GPT step performed heap allocations (min %d over windows), want 0", minAllocs)
			}
			if minPerStep != 0 {
				t.Fatalf("engine AllocsPerStep min = %d on the GPT model, want 0", minPerStep)
			}
		})
	}
}
