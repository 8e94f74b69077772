// Memory-centric tiling demo (paper Sec. 5.1.3, Figure 6b), run through the
// public API on the real ZeRO-Infinity engine: under a GPU budget
// pre-fragmented into chunks smaller than the largest projection, the dense
// GPT OOMs gathering it, while the ModelConfig.Tiling model — the same
// layers as mathematically equivalent sequences of tiles — trains.
package main

import (
	"fmt"
	"log"

	zeroinf "repro"
	"repro/internal/core"
	"repro/internal/mem"
)

func main() {
	const (
		budget = 1 << 20
		chunk  = 4 << 10 // contiguous chunks: 4 KiB
	)
	fmt.Printf("device: %s budget, pre-fragmented into %s chunks (Fig. 6b protocol)\n\n",
		mem.FormatBytes(budget), mem.FormatBytes(chunk))
	for _, tiles := range []int{1, 4} {
		res, err := zeroinf.Train(zeroinf.TrainOptions{
			Model: zeroinf.ModelConfig{Vocab: 16, Hidden: 32, Heads: 2, Seq: 6, Layers: 1, Tiling: tiles},
			Engine: zeroinf.EngineConfig{
				Infinity: true, Params: zeroinf.OnCPU, Optimizer: zeroinf.OnCPU,
				LossScale: 256, Seed: 42,
				GPUMemory: budget, PreFragment: chunk,
			},
			Ranks: 2, Steps: 2, BatchPerRank: 2,
		})
		// The CI examples-smoke lane relies on this exit code: dense must
		// OOM and the tiled model must train.
		switch {
		case err != nil && core.ErrIsOOM(err):
			fmt.Printf("tiling=%d → OOM: %v\n", tiles, err)
			if tiles != 1 {
				log.Fatalf("tiled model OOMed under the Fig. 6b budget")
			}
		case err != nil:
			log.Fatalf("tiling=%d failed: %v", tiles, err)
		default:
			fmt.Printf("tiling=%d → trains (loss %.4f); max live param bytes %s\n",
				tiles, res.Losses[len(res.Losses)-1], mem.FormatBytes(res.Stats.MaxLiveParamBytes))
			if tiles == 1 {
				log.Fatalf("dense model trained under the Fig. 6b budget (fragmentation not enforced?)")
			}
		}
	}

	fmt.Println("\nanalytic Figure 6b (2 GB chunks, paper-scale hidden sizes):")
	for _, tiles := range []int64{1, 4, 16, 64} {
		fmt.Printf("  tiling %-3d → max hidden %d\n", tiles, fig6b(tiles))
	}
}
