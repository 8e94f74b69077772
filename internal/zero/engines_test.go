package zero

import (
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/optim"
	"repro/internal/tensor"
)

const (
	testRanks = 4
	testSteps = 5
	testBatch = 2
)

func testCfg() model.Config {
	return model.Config{Vocab: 16, Hidden: 16, Heads: 2, Seq: 6, Layers: 2}
}

// makeBatches pre-generates per-step, per-rank batches shared by every
// engine under test.
func makeBatches(cfg model.Config, steps, ranks, batch int) (tokens, targets [][][]int) {
	tokens = make([][][]int, steps)
	targets = make([][][]int, steps)
	for s := 0; s < steps; s++ {
		tokens[s] = make([][]int, ranks)
		targets[s] = make([][]int, ranks)
		for r := 0; r < ranks; r++ {
			rng := tensor.NewRNG(uint64(1000 + s*100 + r))
			tokens[s][r], targets[s][r] = model.SyntheticBatch(rng, cfg, batch)
		}
	}
	return
}

type runOutput struct {
	losses []float64
	params map[string][]float32
	eng    *ShardedEngine // rank 0's engine
}

// runEngine trains the configured engine on testCfg for testSteps, checking
// every rank is idle after each step, and returns rank 0's observations.
func runEngine(t *testing.T, ecfg Config) runOutput {
	t.Helper()
	mcfg := testCfg()
	tokens, targets := makeBatches(mcfg, testSteps, testRanks, testBatch)
	var out runOutput
	var mu sync.Mutex
	comm.Run(testRanks, func(c *comm.Comm) {
		e, err := NewShardedEngine(ecfg, c, model.MustGPT(mcfg), Attachments{})
		if err != nil {
			t.Error(err)
			return
		}
		var losses []float64
		for s := 0; s < testSteps; s++ {
			res := mustStep(t)(e.Step(tokens[s][c.Rank()], targets[s][c.Rank()], testBatch))
			losses = append(losses, res.Loss)
			if err := e.CheckIdle(); err != nil {
				t.Errorf("%s rank %d after step %d: %v", ecfg.Stage, c.Rank(), s, err)
			}
		}
		params := e.FullParams()
		if c.Rank() == 0 {
			mu.Lock()
			out = runOutput{losses: losses, params: params, eng: e}
			mu.Unlock()
		}
	})
	return out
}

func TestTrainingConvergesUnderZ3(t *testing.T) {
	mcfg := testCfg()
	tokens, targets := makeBatches(mcfg, 1, testRanks, testBatch)
	var first, last float64
	comm.Run(testRanks, func(c *comm.Comm) {
		g := model.MustGPT(mcfg)
		acfg := optim.DefaultAdamConfig()
		acfg.LR = 0.01
		e, err := NewZ3Engine(Config{LossScale: 128, Seed: 7, Adam: acfg}, c, g)
		if err != nil {
			t.Error(err)
			return
		}
		for s := 0; s < 40; s++ {
			res := e.Step(tokens[0][c.Rank()], targets[0][c.Rank()], testBatch)
			if c.Rank() == 0 {
				if s == 0 {
					first = res.Loss
				}
				last = res.Loss
			}
		}
	})
	if last > first*0.8 {
		t.Fatalf("Z3 training did not converge: first %g last %g", first, last)
	}
}

func TestZ3ExternalParamAutoRegistration(t *testing.T) {
	out := runEngine(t, Config{Stage: Stage3, LossScale: 64, Seed: 9})
	z3 := out.eng
	if z3 == nil {
		t.Fatal("no engine captured")
	}
	// The tied head touches embed.tok outside its owner module: exactly one
	// on-demand gather in the first iteration, then the registry prefetches
	// it for all later iterations.
	if z3.OnDemandGathers != 1 {
		t.Fatalf("OnDemandGathers = %d, want 1 (registration should stop later on-demand hits)", z3.OnDemandGathers)
	}
	found := false
	for _, ps := range z3.external {
		for _, p := range ps {
			if p.Name == "embed.tok" {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("embed.tok not registered as external parameter")
	}
}

func TestZ3ParamsReleasedBetweenSteps(t *testing.T) {
	mcfg := testCfg()
	tokens, targets := makeBatches(mcfg, 1, testRanks, testBatch)
	comm.Run(testRanks, func(c *comm.Comm) {
		g := model.MustGPT(mcfg)
		e, _ := NewZ3Engine(Config{LossScale: 64, Seed: 3}, c, g)
		e.Step(tokens[0][c.Rank()], targets[0][c.Rank()], testBatch)
		if err := e.CheckIdle(); err != nil {
			t.Errorf("rank %d after step: %v", c.Rank(), err)
		}
	})
}

func TestOverflowSkipsAndHalvesScale(t *testing.T) {
	mcfg := testCfg()
	tokens, targets := makeBatches(mcfg, 1, testRanks, testBatch)
	comm.Run(testRanks, func(c *comm.Comm) {
		g := model.MustGPT(mcfg)
		// Absurd loss scale: fp16 gradient encoding overflows to Inf.
		e, _ := NewZ3Engine(Config{LossScale: 1e30, DynamicLossScale: true, Seed: 5}, c, g)
		before := e.FullParams()
		res := e.Step(tokens[0][c.Rank()], targets[0][c.Rank()], testBatch)
		if !res.Skipped {
			t.Error("overflow step was not skipped")
		}
		if res.LossScale >= 1e30 {
			t.Errorf("scale not reduced: %g", res.LossScale)
		}
		after := e.FullParams()
		if c.Rank() == 0 {
			for name, b := range before {
				for i := range b {
					if after[name][i] != b[i] {
						t.Fatalf("skipped step modified %s[%d]", name, i)
					}
				}
			}
		}
	})
}

// LoadParams checks every name and length before it changes anything: a
// map missing the last parameter, or holding it at the wrong length, returns
// the error and leaves the weights and the optimizer step as they were.
func TestLoadParamsRejectsBadMapsAtomically(t *testing.T) {
	mcfg := testCfg()
	tokens, targets := makeBatches(mcfg, 1, testRanks, testBatch)
	for _, stage := range []Stage{Stage3, StageDDP, Stage2} {
		t.Run(stage.String(), func(t *testing.T) {
			comm.Run(testRanks, func(c *comm.Comm) {
				e, err := NewShardedEngine(Config{Stage: stage, LossScale: 64, Seed: 3}, c, model.MustGPT(mcfg), Attachments{})
				if err != nil {
					t.Error(err)
					return
				}
				mustStep(t)(e.Step(tokens[0][c.Rank()], targets[0][c.Rank()], testBatch))
				before := e.FullParams()
				last := e.params[len(e.params)-1].Name
				// Every value differs from the current weights, so a
				// parameter placed before the error would show.
				shifted := func() map[string][]float32 {
					m := make(map[string][]float32, len(before))
					for name, v := range before {
						w := make([]float32, len(v))
						for i := range v {
							w[i] = v[i] + 0.5
						}
						m[name] = w
					}
					return m
				}
				missing, short := shifted(), shifted()
				delete(missing, last)
				short[last] = short[last][1:]
				for _, bad := range []map[string][]float32{missing, short} {
					if err := e.LoadParams(bad); err == nil {
						t.Errorf("rank %d: LoadParams accepted a bad map", c.Rank())
					}
					if e.stepCount != 1 {
						t.Errorf("rank %d: step count %d after a rejected load, want 1", c.Rank(), e.stepCount)
					}
					if name, ok := sameParams(before, e.FullParams()); !ok {
						t.Errorf("rank %d: rejected load changed %s", c.Rank(), name)
					}
				}
			})
		})
	}
}

// sameParams reports whether b holds a's values bit for bit, and the first
// parameter that differs if not.
func sameParams(a, b map[string][]float32) (string, bool) {
	for name, v := range a {
		for i := range v {
			if b[name][i] != v[i] {
				return name, false
			}
		}
	}
	return "", true
}

func TestOffloadEngineCountsTraffic(t *testing.T) {
	mcfg := testCfg()
	tokens, targets := makeBatches(mcfg, 1, testRanks, testBatch)
	comm.Run(testRanks, func(c *comm.Comm) {
		g := model.MustGPT(mcfg)
		e, _ := NewDPEngine(Config{Stage: Stage2, OffloadOptimizer: true, LossScale: 64, Seed: 1}, c, g)
		e.Step(tokens[0][c.Rank()], targets[0][c.Rank()], testBatch)
		if e.BytesToCPU == 0 || e.BytesFromCPU == 0 {
			t.Errorf("offload traffic not recorded: down=%d up=%d", e.BytesToCPU, e.BytesFromCPU)
		}
	})
}

func TestDPEngineRejectsStage3(t *testing.T) {
	comm.Run(1, func(c *comm.Comm) {
		g := model.MustGPT(testCfg())
		if _, err := NewDPEngine(Config{Stage: Stage3}, c, g); err == nil {
			t.Error("DPEngine accepted stage3")
		}
	})
}

func TestTable2HasSevenStrategies(t *testing.T) {
	rows := Table2()
	if len(rows) != 7 {
		t.Fatalf("Table2 rows = %d, want 7", len(rows))
	}
	if rows[0].Name != "Data parallel" || rows[6].Name != "ZeRO-Inf-NVMe" {
		t.Fatalf("unexpected rows %q, %q", rows[0].Name, rows[6].Name)
	}
	if !rows[6].ParamPartition || rows[6].ParamDevices[0] != OnNVMe {
		t.Fatal("ZeRO-Inf-NVMe row wrong")
	}
}

func TestStageStrings(t *testing.T) {
	if StageDDP.String() != "ddp" || Stage3.String() != "zero3" {
		t.Fatal("stage names wrong")
	}
	if OnNVMe.String() != "nvme" || OnGPU.String() != "gpu" {
		t.Fatal("placement names wrong")
	}
}
