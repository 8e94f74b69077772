package harness

import (
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/tensor"
	"repro/internal/zero"
)

// engine is what the functional experiments drive: the one engine body,
// zero.ShardedEngine, for every stage, or core's InfinityEngine around it.
type engine interface {
	Step(tokens, targets []int, batch int) (zero.StepResult, error)
	Stats() zero.Stats
	Close()
}

// newZero and newInfinity adapt the two engine constructors to trainSPMD,
// filling in the recipe every experiment shares. newZero runs cfg.Stage.
func newZero(cfg zero.Config) func(*comm.Comm, *model.GPT) (engine, error) {
	cfg.LossScale, cfg.Seed, cfg.Backend = 256, 42, backend
	return func(c *comm.Comm, g *model.GPT) (engine, error) {
		return zero.NewShardedEngine(cfg, c, g, zero.Attachments{})
	}
}

func newInfinity(cfg core.Config) func(*comm.Comm, *model.GPT) (engine, error) {
	cfg.LossScale, cfg.Seed, cfg.Backend = 256, 42, backend
	return func(c *comm.Comm, g *model.GPT) (engine, error) { return core.NewInfinityEngine(cfg, c, g) }
}

// spmdRun is rank 0's record of one trainSPMD run: per-step global loss,
// wall time and heap allocations, then the engine's final statistics and
// the fabric's total traffic.
type spmdRun struct {
	losses, stepMS []float64
	allocs         []uint64
	stats          zero.Stats
	traffic        comm.TrafficStats
}

func (r spmdRun) lastLoss() float64 { return r.losses[len(r.losses)-1] }

// trainSPMD builds one engine per goroutine rank with mk, on an in-memory
// world with the given topology (nil = flat) and the selected backend as the
// collectives' codec, and trains it for steps on synthetic batches of 2
// sequences seeded seed+100*step+rank. It returns rank 0's record, or the
// first error of any rank.
func trainSPMD(mcfg model.Config, ranks, steps int, seed uint64, topo *comm.Topology, mk func(*comm.Comm, *model.GPT) (engine, error)) (spmdRun, error) {
	w, err := comm.New(comm.WorldOptions{Size: ranks, Topology: topo, CodecBackend: backend})
	if err != nil {
		return spmdRun{}, err
	}
	var out spmdRun
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	w.Run(func(c *comm.Comm) {
		e, err := mk(c, model.MustGPT(mcfg))
		if err != nil {
			fail(err)
			return
		}
		defer e.Close()
		var local spmdRun
		for s := 0; s < steps; s++ {
			rng := tensor.NewRNG(seed + uint64(s*100+c.Rank()))
			tok, tgt := model.SyntheticBatch(rng, mcfg, 2)
			start := time.Now()
			res, err := e.Step(tok, tgt, 2)
			if err != nil {
				fail(err)
				return
			}
			if c.Rank() != 0 {
				continue // only rank 0 records (and allocates between steps)
			}
			local.stepMS = append(local.stepMS, float64(time.Since(start).Microseconds())/1000)
			local.losses = append(local.losses, res.Loss)
			local.allocs = append(local.allocs, e.Stats().AllocsPerStep)
		}
		if c.Rank() == 0 {
			local.stats, local.traffic = e.Stats(), c.TrafficTotal()
			mu.Lock()
			out = local
			mu.Unlock()
		}
	})
	return out, firstErr
}
