// Command zinf-train trains a GPT-like model on synthetic data with any
// engine in the reproduction, printing per-step losses and (for
// ZeRO-Infinity) offload statistics.
//
// Examples:
//
//	zinf-train -engine ddp -ranks 4 -steps 10
//	zinf-train -engine infinity -params nvme -opt nvme -nvme-dir /tmp -ranks 8
//
// With -worker the process instead joins a multi-process world as a single
// rank, reading its identity and training recipe from the environment —
// the mode cmd/zinf-launch spawns (see that command for the variables).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"syscall"

	zeroinf "repro"
	"repro/internal/cliconfig"
	"repro/internal/mem"
)

func main() {
	t := cliconfig.TrainDefaults()
	cliconfig.AddTrain(flag.CommandLine, &t)
	var (
		worker    = flag.Bool("worker", false, "run as one rank of a zinf-launch world (identity from ZINF_WORKER_* env)")
		ckptDir   = flag.String("ckpt-dir", "", "crash-consistent checkpoint directory (enables -ckpt-every and -resume)")
		ckptEvery = flag.Int("ckpt-every", 0, "snapshot asynchronously every N steps (0 = off; requires -ckpt-dir)")
		resume    = flag.Bool("resume", false, "resume from the newest complete generation in -ckpt-dir")
	)
	flag.Parse()

	if *worker {
		if err := runWorker(); err != nil {
			log.Fatal(err)
		}
		return
	}

	spec, err := t.WorkerSpec()
	if err != nil {
		log.Fatal(err)
	}
	mcfg, ecfg := spec.Model, spec.Engine
	ecfg.CheckpointDir = *ckptDir
	ecfg.CheckpointEvery = *ckptEvery

	// SIGINT/SIGTERM request a clean stop: ranks agree on a step boundary,
	// take a final snapshot into -ckpt-dir, and exit resumably.
	var stop chan struct{}
	if *ckptDir != "" {
		stop = make(chan struct{})
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sig
			fmt.Println("signal received: taking a final snapshot and stopping")
			signal.Stop(sig)
			close(stop)
		}()
	}

	fmt.Printf("training %d-layer hd=%d model (%d params) on %d ranks with %s\n",
		mcfg.Layers, mcfg.Hidden, mcfg.ExactParamCount(), t.Ranks, t.Engine)
	res, err := zeroinf.Train(zeroinf.TrainOptions{
		Model: mcfg, Engine: ecfg, Ranks: t.Ranks, Steps: spec.Steps, BatchPerRank: spec.BatchPerRank,
		GradAccumSteps: spec.GradAccumSteps,
		Resume:         *resume,
		Stop:           stop,
		OnStep: func(s int, r zeroinf.StepResult) {
			status := ""
			if r.Skipped {
				status = "  (overflow: step skipped)"
			}
			fmt.Printf("step %3d  loss %.6f  scale %g%s\n", s, r.Loss, r.LossScale, status)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, err := range res.ResumeSkipped {
		fmt.Printf("resume fell back past a generation that failed validation: %v\n", err)
	}
	if res.CheckpointErr != nil {
		log.Printf("checkpointing degraded: %v", res.CheckpointErr)
	}
	if *ckptDir != "" && res.FinalStep > res.StartStep {
		fmt.Printf("trained steps %d..%d; checkpoints in %s\n", res.StartStep, res.FinalStep, *ckptDir)
	}
	printStats(t.Engine, ecfg, mcfg, res)
}

func printStats(engine string, ecfg zeroinf.EngineConfig, mcfg zeroinf.ModelConfig, res zeroinf.TrainResult) {
	if engine == "infinity" || engine == "zero3" {
		s := res.Stats
		fmt.Printf("\n%s engine: %d gathers (%d on-demand), peak live gathered params %s (tiling %d)\n",
			engine, s.Gathers, s.OnDemandGathers, mem.FormatBytes(s.MaxLiveParamBytes), mcfg.Tiling)
		fmt.Printf("overlap: allgather prefetch %d issued / %d hits, %d async reduce-scatters\n",
			s.CommPrefetchIssued, s.CommPrefetchHits, s.AsyncReduces)
		if ecfg.Topology != nil && len(s.CommTraffic) > 0 {
			fmt.Printf("fabric %s, partition %s — achieved aggregate bandwidth per collective:\n",
				ecfg.Topology, ecfg.Partition)
			kinds := make([]string, 0, len(s.CommTraffic))
			for k := range s.CommTraffic {
				kinds = append(kinds, k)
			}
			sort.Strings(kinds)
			for _, k := range kinds {
				tr := s.CommTraffic[k]
				fmt.Printf("  %-24s %5d ops  %9s moved (%s inter)  %8.3f ms  %7.2f GB/s\n",
					k, tr.Ops, mem.FormatBytes(tr.Bytes()), mem.FormatBytes(tr.InterBytes),
					tr.Seconds*1e3, tr.AggGBps())
			}
		}
	}
	if engine == "infinity" {
		s := res.Stats
		fmt.Printf("NVMe prefetch %d issued / %d hits; traffic: %s read, %s written; staging ring %s (%d staged transfers)\n",
			s.PrefetchIssued, s.PrefetchHits,
			mem.FormatBytes(s.NVMeBytesRead), mem.FormatBytes(s.NVMeBytesWritten),
			mem.FormatBytes(s.PinnedBytes), s.PinnedAcquires)
		if s.CkptBytesOffload > 0 {
			fmt.Printf("activation checkpoints offloaded: %s\n", mem.FormatBytes(s.CkptBytesOffload))
		}
	}
}

// envInt reads a required integer worker variable.
func envInt(name string) (int, error) {
	v, err := strconv.Atoi(os.Getenv(name))
	if err != nil {
		return 0, fmt.Errorf("zinf-train -worker: bad or missing %s=%q (spawned outside zinf-launch?)", name, os.Getenv(name))
	}
	return v, nil
}

// runWorker joins a zinf-launch world as one rank. Identity comes from
// ZINF_WORKER_RANK / ZINF_WORKER_WORLD / ZINF_WORKER_COORD /
// ZINF_WORKER_TRANSPORT, the training recipe from ZINF_CONFIG (a JSON
// cliconfig.WorkerSpec).
func runWorker() error {
	spec, err := cliconfig.UnmarshalWorkerSpec([]byte(os.Getenv("ZINF_CONFIG")))
	if err != nil {
		return fmt.Errorf("zinf-train -worker: ZINF_CONFIG: %w", err)
	}
	world, err := envInt("ZINF_WORKER_WORLD")
	if err != nil {
		return err
	}
	if os.Getenv("ZINF_WORKER_TRANSPORT") == "mem" {
		// The launcher runs the whole world in this one process: plain
		// goroutine-rank training.
		res, err := zeroinf.Train(zeroinf.TrainOptions{
			Model: spec.Model, Engine: spec.Engine, Ranks: world,
			Steps: spec.Steps, BatchPerRank: spec.BatchPerRank,
			GradAccumSteps: spec.GradAccumSteps, DataSeed: spec.DataSeed,
		})
		if err != nil {
			return err
		}
		reportWorker(0, res)
		return nil
	}
	rank, err := envInt("ZINF_WORKER_RANK")
	if err != nil {
		return err
	}
	be, err := zeroinf.BackendByName(spec.Engine.Backend)
	if err != nil {
		return err
	}
	tr, err := zeroinf.NewSockTransport(zeroinf.SockConfig{
		Rank: rank, Size: world, Coord: os.Getenv("ZINF_WORKER_COORD"),
	})
	if err != nil {
		return err
	}
	w, err := zeroinf.NewWorld(zeroinf.WorldOptions{
		Size: world, Transport: tr,
		Topology:     spec.Engine.Topology,
		CodecBackend: be,
	})
	if err != nil {
		tr.Close()
		return err
	}
	defer w.Close()
	res, err := zeroinf.Train(zeroinf.TrainOptions{
		Model: spec.Model, Engine: spec.Engine, Comm: w.Comm(rank),
		Steps: spec.Steps, BatchPerRank: spec.BatchPerRank,
		GradAccumSteps: spec.GradAccumSteps, DataSeed: spec.DataSeed,
	})
	if err != nil {
		return fmt.Errorf("rank %d: %w", rank, err)
	}
	reportWorker(rank, res)
	return nil
}

// reportWorker prints the worker's trajectory: per-step losses on rank 0
// (the launcher prefixes every line with the rank), a one-line summary on
// the rest — every rank computes the same global mean loss, so printing it
// once keeps the aggregated output readable.
func reportWorker(rank int, res zeroinf.TrainResult) {
	if rank == 0 {
		for i, l := range res.Losses {
			fmt.Printf("step %3d  loss %.6f\n", res.StartStep+i, l)
		}
	}
	final := "n/a"
	if n := len(res.Losses); n > 0 {
		final = strconv.FormatFloat(res.Losses[n-1], 'f', 6, 64)
	}
	fmt.Printf("worker done: %d steps, final loss %s\n", res.FinalStep-res.StartStep, final)
}
