package harness

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/tensor"
	"repro/internal/zero"
)

// Overlap knobs, set by zinf-bench's -prefetch / -overlap flags.
var (
	overlapDepth   = 2
	overlapEnabled = true
)

// SetOverlap configures the read-ahead depth and async-reduce toggle the
// overlap experiments run with.
func SetOverlap(depth int, enabled bool) {
	overlapDepth = depth
	overlapEnabled = enabled
}

// overlapRun trains one engine variant and captures per-step wall time plus
// the engine's overlap counters from rank 0.
type overlapRun struct {
	stepMS []float64
	losses []float64
	stats  core.Stats
}

func runOverlapVariant(engine string, depth int, async bool, ranks, steps int) (overlapRun, error) {
	mcfg := model.Config{Vocab: 32, Hidden: 32, Heads: 4, Seq: 12, Layers: 4}
	var out overlapRun
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	comm.Run(ranks, func(c *comm.Comm) {
		g := model.MustGPT(mcfg)
		var step func(tok, tgt []int) (zero.StepResult, error)
		var stats func() core.Stats
		switch engine {
		case "zero3":
			e, err := zero.NewZ3Engine(zero.Config{LossScale: 256, Seed: 42, Backend: backend,
				PrefetchDepth: depth, Overlap: async,
				Partition: fabricPart, Topology: fabricTopo}, c, g)
			if err != nil {
				fail(err)
				return
			}
			step = func(tok, tgt []int) (zero.StepResult, error) { return e.Step(tok, tgt, 2), nil }
			stats = e.Stats
		default: // infinity-nvme
			e, err := core.NewInfinityEngine(core.Config{LossScale: 256, Seed: 42, Backend: backend,
				Params: zero.OnNVMe, Optimizer: zero.OnNVMe,
				PrefetchDepth: depth, Overlap: async,
				Partition: fabricPart, Topology: fabricTopo}, c, g)
			if err != nil {
				fail(err)
				return
			}
			defer e.Close()
			step = func(tok, tgt []int) (zero.StepResult, error) { return e.Step(tok, tgt, 2) }
			stats = e.Stats
		}
		var local overlapRun
		for s := 0; s < steps; s++ {
			rng := tensor.NewRNG(uint64(7000 + s*100 + c.Rank()))
			tok, tgt := model.SyntheticBatch(rng, mcfg, 2)
			start := time.Now()
			res, err := step(tok, tgt)
			if err != nil {
				fail(err)
				return
			}
			local.stepMS = append(local.stepMS, float64(time.Since(start).Microseconds())/1000)
			local.losses = append(local.losses, res.Loss)
		}
		local.stats = stats()
		if c.Rank() == 0 {
			mu.Lock()
			out = local
			mu.Unlock()
		}
	})
	return out, firstErr
}

func init() {
	register(Experiment{
		ID:    "overlap",
		Title: "Fig. 6d (real engines): overlap-centric async collectives + gather prefetch",
		Claim: "overlapping communication with compute speeds up the step without changing a single bit",
		Run: func(w io.Writer) error {
			if !overlapEnabled {
				fmt.Fprintln(w, "overlap disabled (-overlap=false); nothing to ablate")
				return nil
			}
			const ranks, steps = 4, 6
			for _, engine := range []string{"zero3", "infinity-nvme"} {
				sync, err := runOverlapVariant(engine, 0, false, ranks, steps)
				if err != nil {
					return fmt.Errorf("%s sync: %w", engine, err)
				}
				over, err := runOverlapVariant(engine, overlapDepth, true, ranks, steps)
				if err != nil {
					return fmt.Errorf("%s overlap: %w", engine, err)
				}
				fmt.Fprintf(w, "engine %s (depth %d): step-level overlap stats\n", engine, overlapDepth)
				t := newTable(w)
				t.row("step", "sync ms", "overlap ms", "loss", "identical")
				var sumSync, sumOver float64
				for s := range sync.stepMS {
					same := "yes"
					if sync.losses[s] != over.losses[s] {
						same = "NO"
					}
					t.row(s, fmt.Sprintf("%.2f", sync.stepMS[s]), fmt.Sprintf("%.2f", over.stepMS[s]),
						fmt.Sprintf("%.6f", over.losses[s]), same)
					sumSync += sync.stepMS[s]
					sumOver += over.stepMS[s]
					if same == "NO" {
						t.flush()
						return fmt.Errorf("%s: overlap diverged at step %d", engine, s)
					}
				}
				t.flush()
				st := over.stats
				fmt.Fprintf(w, "  allgather prefetch %d issued / %d hits, %d async reduce-scatters",
					st.CommPrefetchIssued, st.CommPrefetchHits, st.AsyncReduces)
				if st.PrefetchIssued > 0 {
					fmt.Fprintf(w, ", NVMe prefetch %d issued / %d hits", st.PrefetchIssued, st.PrefetchHits)
				}
				fmt.Fprintf(w, "\n  total %.2f ms sync vs %.2f ms overlap (%.2fx)\n\n",
					sumSync, sumOver, sumSync/sumOver)
				emitRecord(Record{
					Name:  "zinf/overlap/" + engine,
					Unit:  "ms/run",
					Value: sumOver,
					Extra: map[string]float64{
						"sync_ms":            sumSync,
						"prefetch_hits":      float64(st.CommPrefetchHits),
						"async_reduces":      float64(st.AsyncReduces),
						"steady_allocs_step": float64(st.AllocsPerStep),
					},
				})
			}
			fmt.Fprintln(w, "(the simulator's Fig. 6d ablation models the same effect: zinf-bench -run fig6d)")
			return nil
		},
	})
}
