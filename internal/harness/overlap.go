package harness

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/zero"
)

// overlapDepth is the read-ahead depth of every overlapped engine the
// functional experiments build.
const overlapDepth = 2

// runOverlapVariant trains one engine variant and captures per-step wall
// time plus the engine's overlap counters from rank 0.
func runOverlapVariant(name string, depth int, async bool, ranks, steps int) (spmdRun, error) {
	mk := newZero(zero.Config{Stage: zero.Stage3, PrefetchDepth: depth, Overlap: async})
	if name != "zero3" { // infinity-nvme
		mk = newInfinity(core.Config{Params: zero.OnNVMe, Optimizer: zero.OnNVMe,
			PrefetchDepth: depth, Overlap: async})
	}
	return trainSPMD(model.Config{Vocab: 32, Hidden: 32, Heads: 4, Seq: 12, Layers: 4}, ranks, steps, 7000, nil, mk)
}

func init() {
	register(Experiment{
		ID:    "overlap",
		Title: "Fig. 6d (real engines): overlap-centric async collectives + gather prefetch",
		Claim: "overlapping communication with compute speeds up the step without changing a single bit",
		Run: func(w io.Writer) error {
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
