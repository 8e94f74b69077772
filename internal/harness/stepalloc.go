package harness

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/zero"
)

// The stepalloc experiment surfaces the allocation-free steady-state work:
// it trains the stage-3 and infinity engines for a few steps and reports
// each step's wall time and heap-allocation count (Stats.AllocsPerStep /
// ShardedEngine.AllocsPerStep, a process-global runtime-metrics allocation
// delta). Step 1 warms the scratch arenas, the collective op pool and the
// gather trace; later steps' engine+comm+tensor contribution is zero, so
// the residual count is the model's activation allocations only.

// runStepAllocEngineOnly trains the allocation-free stub model
// (zero.NewAllocFreeStub) on the real Z3 engine with overlap+prefetch and
// returns the minimum AllocsPerStep over the post-warm-up steps — the
// engine+comm+tensor hot path's own allocation count, which must be zero.
// The minimum over windows filters the Go runtime's sporadic bookkeeping
// allocations exactly as TestSteadyStateZeroAllocs does; a real engine
// leak recurs every step and survives the minimum.
func runStepAllocEngineOnly(warmup, steps int) (uint64, error) {
	const ranks = 2
	minAllocs := ^uint64(0)
	var mu sync.Mutex
	var firstErr error
	w, err := comm.New(comm.WorldOptions{Size: ranks, CodecBackend: backend})
	if err != nil {
		return 0, err
	}
	w.Run(func(c *comm.Comm) {
		m := zero.NewAllocFreeStub(4, 51)
		e, err := zero.NewZ3Engine(zero.Config{LossScale: 1, Seed: 11, Backend: backend,
			Overlap: true, PrefetchDepth: 2}, c, m)
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
			return
		}
		tok := make([]int, 1)
		tgt := make([]int, 1)
		for s := 0; s < warmup+steps; s++ {
			e.Step(tok, tgt, 1)
			if s >= warmup && c.Rank() == 0 {
				mu.Lock()
				if e.AllocsPerStep < minAllocs {
					minAllocs = e.AllocsPerStep
				}
				mu.Unlock()
			}
		}
	})
	return minAllocs, firstErr
}

func runStepAllocVariant(name string, ranks, steps int) (spmdRun, error) {
	mk := newZero(zero.Config{Stage: zero.Stage3, PrefetchDepth: overlapDepth, Overlap: true})
	if name != "zero3" { // infinity-gpu
		mk = newInfinity(core.Config{PrefetchDepth: overlapDepth, Overlap: true})
	}
	return trainSPMD(model.Config{Vocab: 32, Hidden: 32, Heads: 4, Seq: 12, Layers: 4}, ranks, steps, 9000, nil, mk)
}

func init() {
	register(Experiment{
		ID:    "stepalloc",
		Title: "Allocation-free steady state: per-step heap allocations and wall time",
		Claim: "after step 1 warms the scratch arenas, the engine+comm+tensor hot path stops allocating",
		Run: func(w io.Writer) error {
			const ranks, steps = 4, 6
			engineAllocs, err := runStepAllocEngineOnly(3, 4)
			if err != nil {
				return fmt.Errorf("engine-only: %w", err)
			}
			fmt.Fprintf(w, "engine+comm+tensor hot path (stub model, overlap+prefetch): %d allocs/step steady\n\n",
				engineAllocs)
			emitRecord(Record{
				Name:  "zinf/stepalloc/zero3-engine/steady",
				Unit:  "allocs/step",
				Value: float64(engineAllocs),
			})
			for _, engine := range []string{"zero3", "infinity-gpu"} {
				run, err := runStepAllocVariant(engine, ranks, steps)
				if err != nil {
					return fmt.Errorf("%s: %w", engine, err)
				}
				fmt.Fprintf(w, "engine %s (%d ranks, backend %s):\n", engine, ranks, backend.Name())
				tb := newTable(w)
				tb.row("step", "ms", "allocs/step", "loss")
				for s := range run.stepMS {
					tb.row(s, fmt.Sprintf("%.2f", run.stepMS[s]), run.allocs[s],
						fmt.Sprintf("%.6f", run.losses[s]))
				}
				tb.flush()
				// Steady state = minimum over the post-warm-up steps: the
				// model's activation allocations recur identically every
				// step, while GC/runtime bookkeeping spikes are sporadic —
				// the minimum keeps the former and filters the latter, so
				// the committed baseline is stable enough to ratio-gate.
				first := run.allocs[0]
				last := run.allocs[1]
				steadyMS := run.stepMS[1]
				for s := 2; s < len(run.allocs); s++ {
					if run.allocs[s] < last {
						last = run.allocs[s]
					}
					if run.stepMS[s] < steadyMS {
						steadyMS = run.stepMS[s]
					}
				}
				if last == 0 {
					fmt.Fprintf(w, "  step-1 allocs %d -> steady 0 (fully allocation-free)\n\n", first)
				} else {
					fmt.Fprintf(w, "  step-1 allocs %d -> steady %d (%.1fx fewer; residual = model activations)\n\n",
						first, last, float64(first)/float64(last))
				}
				// Unit "model-allocs/step": the full-step record including
				// the model's forward/backward, which the step-scoped
				// activation arena makes allocation-free — benchdiff
				// hard-gates it at zero like the engine record, and
				// ratio-gates the first_step_allocs warmup extra.
				emitRecord(Record{
					Name:  "zinf/stepalloc/" + engine + "/steady",
					Unit:  "model-allocs/step",
					Value: float64(last),
					Extra: map[string]float64{
						"first_step_allocs": float64(first),
						"steady_ms":         steadyMS,
					},
				})
			}
			return nil
		},
	})
}
