package harness

import (
	"fmt"
	"io"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/nvme"
	"repro/internal/zero"
)

// equivModel is the model used by the functional verification experiments.
func equivModel(ckpt bool) model.Config {
	return model.Config{Vocab: 16, Hidden: 16, Heads: 2, Seq: 6, Layers: 2, CheckpointActivations: ckpt}
}

// trainLosses trains the named engine for steps on ranks goroutine-GPUs and
// returns the global loss trajectory.
func trainLosses(name string, ranks, steps int) ([]float64, error) {
	var mk func(*comm.Comm, *model.GPT) (engine, error)
	switch name {
	case "ddp":
		mk = newZero(zero.Config{Stage: zero.StageDDP})
	case "zero1":
		mk = newZero(zero.Config{Stage: zero.Stage1})
	case "zero2", "zero-offload":
		mk = newZero(zero.Config{Stage: zero.Stage2, OffloadOptimizer: name == "zero-offload"})
	case "zero3":
		mk = newZero(zero.Config{Stage: zero.Stage3})
	case "zero3-overlap":
		mk = newZero(zero.Config{Stage: zero.Stage3, PrefetchDepth: overlapDepth, Overlap: true})
	case "infinity-cpu":
		mk = newInfinity(core.Config{Params: zero.OnCPU, Optimizer: zero.OnCPU, PrefetchDepth: 2})
	default: // the NVMe variants
		cfg := core.Config{Params: zero.OnNVMe, Optimizer: zero.OnNVMe, PrefetchDepth: 2,
			OffloadActivations: name == "infinity-nvme-ckpt"}
		if name == "infinity-overlap" {
			cfg.PrefetchDepth, cfg.Overlap = overlapDepth, true
		}
		mk = newInfinity(cfg)
	}
	run, err := trainSPMD(equivModel(name == "infinity-nvme-ckpt"), ranks, steps, 7000, nil, mk)
	return run.losses, err
}

// tilingFactor is the memory-centric tiling factor of the fig6b-engine
// experiment's tiled model.
const tilingFactor = 4

// runInfinityBudget trains mcfg on the real ZeRO-Infinity engine (CPU
// placements) for a few steps, optionally under a pre-fragmented GPU
// working-set budget — the real-engine Fig. 6b protocol. It returns rank
// 0's record, or the first error (a budget violation surfaces as an error
// wrapping mem.ErrFragmented / mem.ErrOutOfMemory).
func runInfinityBudget(mcfg model.Config, budget, chunk int64) (spmdRun, error) {
	return trainSPMD(mcfg, 2, 2, 6200, nil, newInfinity(core.Config{
		Params: zero.OnCPU, Optimizer: zero.OnCPU, GPUMemory: budget, PreFragment: chunk}))
}

func init() {
	register(Experiment{
		ID:    "equiv",
		Title: "Functional: every engine trains bit-identically to DDP",
		Claim: "ZeRO stages and ZeRO-Infinity are memory optimizations, not algorithm changes",
		Run: func(w io.Writer) error {
			const ranks, steps = 4, 4
			ref, err := trainLosses("ddp", ranks, steps)
			if err != nil {
				return err
			}
			engines := []string{"zero1", "zero2", "zero-offload", "zero3", "infinity-cpu",
				"infinity-nvme", "infinity-nvme-ckpt", "zero3-overlap", "infinity-overlap"}
			t := newTable(w)
			t.row("engine", "loss[0]", "loss[last]", "vs DDP")
			t.row("ddp", fmt.Sprintf("%.9f", ref[0]), fmt.Sprintf("%.9f", ref[len(ref)-1]), "reference")
			for _, name := range engines {
				got, err := trainLosses(name, ranks, steps)
				if err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
				status := "BIT-IDENTICAL"
				for i := range ref {
					if got[i] != ref[i] {
						status = fmt.Sprintf("DIVERGED at step %d", i)
						break
					}
				}
				t.row(name, fmt.Sprintf("%.9f", got[0]), fmt.Sprintf("%.9f", got[len(got)-1]), status)
				if status != "BIT-IDENTICAL" {
					t.flush()
					return fmt.Errorf("engine %s diverged from DDP", name)
				}
			}
			t.flush()
			return nil
		},
	})

	register(Experiment{
		ID:    "fig6b-engine",
		Title: "Figure 6b (real engine): model-wide tiling under a pre-fragmented GPU budget",
		Claim: "dense GPT OOMs gathering its projections on fragmented memory; the tiled model trains and cuts max live param bytes by ~the tile factor",
		Run: func(w io.Writer) error {
			const budget, chunk = 1 << 20, 4 << 10
			base := model.Config{Vocab: 16, Hidden: 32, Heads: 2, Seq: 6, Layers: 1}
			tiled := base
			tiled.Tiling = tilingFactor

			denseFree, err := runInfinityBudget(base, 0, 0)
			if err != nil {
				return fmt.Errorf("dense unbudgeted run: %w", err)
			}
			t := newTable(w)
			t.row("model", "gpu budget", "result", "max live params")
			t.row("dense", "unlimited", fmt.Sprintf("trains (loss %.4f)", denseFree.lastLoss()),
				mem.FormatBytes(denseFree.stats.MaxLiveParamBytes))

			denseOOM, err := runInfinityBudget(base, budget, chunk)
			if err == nil {
				return fmt.Errorf("dense model trained under the fragmented budget (max live %s)",
					mem.FormatBytes(denseOOM.stats.MaxLiveParamBytes))
			}
			if !core.ErrIsOOM(err) {
				return fmt.Errorf("dense budgeted run failed for the wrong reason: %w", err)
			}
			t.row("dense", fmt.Sprintf("%s/%s chunks", mem.FormatBytes(budget), mem.FormatBytes(chunk)),
				"OOM (fragmented)", "-")

			tiledRun, err := runInfinityBudget(tiled, budget, chunk)
			if err != nil {
				return fmt.Errorf("tiled (x%d) budgeted run: %w", tilingFactor, err)
			}
			t.row(fmt.Sprintf("tiled x%d", tilingFactor),
				fmt.Sprintf("%s/%s chunks", mem.FormatBytes(budget), mem.FormatBytes(chunk)),
				fmt.Sprintf("trains (loss %.4f)", tiledRun.lastLoss()),
				mem.FormatBytes(tiledRun.stats.MaxLiveParamBytes))
			t.flush()
			fmt.Fprintf(w, "max live param bytes: dense %s -> tiled %s (%.1fx reduction)\n",
				mem.FormatBytes(denseFree.stats.MaxLiveParamBytes),
				mem.FormatBytes(tiledRun.stats.MaxLiveParamBytes),
				float64(denseFree.stats.MaxLiveParamBytes)/float64(tiledRun.stats.MaxLiveParamBytes))
			return nil
		},
	})

	register(Experiment{
		ID:    "nvme-bw",
		Title: "Functional: DeepNVMe-style engine reaches near-peak store bandwidth",
		Claim: "aggressive request parallelization from one user thread approaches device peak",
		Run: func(w io.Writer) error {
			const total = 64 << 20
			buf := make([]byte, total)
			t := newTable(w)
			t.row("workers", "write GB/s", "read GB/s")
			for _, workers := range []int{1, 2, 4, 8} {
				e := nvme.NewEngine(nvme.NewMemStore(total), nvme.Options{Workers: workers, ChunkSize: 1 << 20})
				start := time.Now()
				const reps = 8
				for i := 0; i < reps; i++ {
					if err := e.Write(buf, 0); err != nil {
						return err
					}
				}
				wbw := float64(total*reps) / time.Since(start).Seconds() / 1e9
				start = time.Now()
				for i := 0; i < reps; i++ {
					if err := e.Read(buf, 0); err != nil {
						return err
					}
				}
				rbw := float64(total*reps) / time.Since(start).Seconds() / 1e9
				e.Close()
				t.row(workers, fmt.Sprintf("%.1f", wbw), fmt.Sprintf("%.1f", rbw))
			}
			t.flush()
			return nil
		},
	})
}
