package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/module"
	"repro/internal/tensor"
	"repro/internal/zero"
)

const (
	testRanks = 4
	testSteps = 4
	testBatch = 2
)

func testModelCfg(ckpt bool) model.Config {
	return model.Config{Vocab: 16, Hidden: 16, Heads: 2, Seq: 6, Layers: 2, CheckpointActivations: ckpt}
}

func makeBatches(cfg model.Config, steps, ranks, batch int) (tokens, targets [][][]int) {
	tokens = make([][][]int, steps)
	targets = make([][][]int, steps)
	for s := 0; s < steps; s++ {
		tokens[s] = make([][]int, ranks)
		targets[s] = make([][]int, ranks)
		for r := 0; r < ranks; r++ {
			rng := tensor.NewRNG(uint64(9000 + s*100 + r))
			tokens[s][r], targets[s][r] = model.SyntheticBatch(rng, cfg, batch)
		}
	}
	return
}

type trajectory struct {
	losses []float64
	params map[string][]float32
	stats  Stats
	// after holds the cumulative stats after each step (runInfinityOn only).
	after []Stats
}

func runDDP(t *testing.T, mcfg model.Config) trajectory {
	t.Helper()
	tokens, targets := makeBatches(mcfg, testSteps, testRanks, testBatch)
	var out trajectory
	var mu sync.Mutex
	comm.Run(testRanks, func(c *comm.Comm) {
		g := model.MustGPT(mcfg)
		e, err := zero.NewDPEngine(zero.Config{Stage: zero.StageDDP, LossScale: 256, Seed: 42}, c, g)
		if err != nil {
			t.Error(err)
			return
		}
		var losses []float64
		for s := 0; s < testSteps; s++ {
			losses = append(losses, e.Step(tokens[s][c.Rank()], targets[s][c.Rank()], testBatch).Loss)
		}
		p := e.FullParams()
		if c.Rank() == 0 {
			mu.Lock()
			out = trajectory{losses: losses, params: p}
			mu.Unlock()
		}
	})
	return out
}

func runInfinity(t *testing.T, mcfg model.Config, ecfg Config) trajectory {
	t.Helper()
	return runInfinityOn(t, mcfg, ecfg, nil)
}

// runInfinityOn is runInfinity on a world built with the given topology.
func runInfinityOn(t *testing.T, mcfg model.Config, ecfg Config, topo *comm.Topology) trajectory {
	t.Helper()
	w, err := comm.New(comm.WorldOptions{Size: testRanks, Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	ecfg.LossScale = 256
	ecfg.Seed = 42
	tokens, targets := makeBatches(mcfg, testSteps, testRanks, testBatch)
	var out trajectory
	var mu sync.Mutex
	w.Run(func(c *comm.Comm) {
		g := model.MustGPT(mcfg)
		e, err := NewInfinityEngine(ecfg, c, g)
		if err != nil {
			t.Error(err)
			return
		}
		defer e.Close()
		var losses []float64
		var after []Stats
		for s := 0; s < testSteps; s++ {
			res, err := e.Step(tokens[s][c.Rank()], targets[s][c.Rank()], testBatch)
			if err != nil {
				t.Errorf("rank %d step %d: %v", c.Rank(), s, err)
				return
			}
			losses = append(losses, res.Loss)
			after = append(after, e.Stats())
		}
		p := e.FullParams()
		if c.Rank() == 0 {
			mu.Lock()
			out = trajectory{losses: losses, params: p, stats: e.Stats(), after: after}
			mu.Unlock()
		}
	})
	return out
}

func assertSame(t *testing.T, name string, a, b trajectory) {
	t.Helper()
	if len(b.losses) != len(a.losses) {
		t.Fatalf("%s: ran %d steps, want %d", name, len(b.losses), len(a.losses))
	}
	for i := range a.losses {
		if a.losses[i] != b.losses[i] {
			t.Fatalf("%s: loss diverged at step %d: %.17g vs %.17g", name, i, a.losses[i], b.losses[i])
		}
	}
	for pname, av := range a.params {
		bv := b.params[pname]
		if len(bv) != len(av) {
			t.Fatalf("%s: param %s missing/short", name, pname)
		}
		for i := range av {
			if av[i] != bv[i] {
				t.Fatalf("%s: param %s[%d]: %g vs %g", name, pname, i, av[i], bv[i])
			}
		}
	}
}

// Regression test: a prefetch depth at or above the pinned-buffer count
// must not starve synchronous fetches (the speculative reads are budgeted
// below the ring size). This deadlocked before the outstanding-counter fix.
func TestPrefetchDepthExceedingPoolDoesNotDeadlock(t *testing.T) {
	mcfg := model.Config{Vocab: 16, Hidden: 16, Heads: 2, Seq: 6, Layers: 3, CheckpointActivations: true}
	tokens, targets := makeBatches(mcfg, 3, 2, testBatch)
	done := make(chan struct{})
	go func() {
		defer close(done)
		comm.Run(2, func(c *comm.Comm) {
			g := model.MustGPT(mcfg)
			e, err := NewInfinityEngine(Config{
				Params: zero.OnNVMe, Optimizer: zero.OnNVMe,
				PrefetchDepth: 16, LossScale: 32, Seed: 5,
			}, c, g)
			if err != nil {
				t.Error(err)
				return
			}
			defer e.Close()
			for s := 0; s < 3; s++ {
				if _, serr := e.Step(tokens[s][c.Rank()], targets[s][c.Rank()], testBatch); serr != nil {
					t.Errorf("step %d: %v", s, serr)
					return
				}
			}
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("deadlock: prefetcher starved the staging ring")
	}
}

func TestPrefetcherIssuesAndHits(t *testing.T) {
	mcfg := testModelCfg(false)
	got := runInfinity(t, mcfg, Config{Params: zero.OnNVMe, Optimizer: zero.OnNVMe, PrefetchDepth: 3})
	if got.stats.PrefetchIssued == 0 {
		t.Fatal("prefetcher issued nothing")
	}
	if got.stats.PrefetchHits == 0 {
		t.Fatal("no prefetch hits")
	}
	if got.stats.PrefetchHits > got.stats.PrefetchIssued {
		t.Fatalf("hits %d > issued %d", got.stats.PrefetchHits, got.stats.PrefetchIssued)
	}
}

// The pinned memory management layer: a fixed small ring — four buffers,
// each one rank's largest [master|m|v] record — streams the entire
// offloaded state, so pinned bytes stay constant while NVMe traffic is far
// larger (paper Sec. 6.3).
func TestStagingRingBoundedWhileStreaming(t *testing.T) {
	mcfg := testModelCfg(false)
	got := runInfinity(t, mcfg, Config{Params: zero.OnNVMe, Optimizer: zero.OnNVMe})
	largest := 0
	for i, p := range module.AllParams(model.MustGPT(mcfg)) {
		largest = max(largest, zero.ShardLen(zero.PartitionSlice, i, p.Len(), 0, testRanks))
	}
	if want := int64(4 * 12 * largest); got.stats.PinnedBytes != want {
		t.Fatalf("pinned bytes %d, want 4 buffers x 12 B x %d-element largest shard = %d",
			got.stats.PinnedBytes, largest, want)
	}
	if got.stats.NVMeBytesRead < 4*got.stats.PinnedBytes {
		t.Fatalf("NVMe read %d not >> pinned %d; reuse not demonstrated",
			got.stats.NVMeBytesRead, got.stats.PinnedBytes)
	}
	if got.stats.PinnedAcquires <= 4 {
		t.Fatalf("pinned acquires %d too small", got.stats.PinnedAcquires)
	}
}

func TestActivationOffloadMovesBytes(t *testing.T) {
	mcfg := testModelCfg(true)
	got := runInfinity(t, mcfg, Config{Params: zero.OnCPU, Optimizer: zero.OnCPU, OffloadActivations: true})
	if got.stats.CkptBytesOffload == 0 {
		t.Fatal("no checkpoint bytes offloaded")
	}
}

func TestExternalParamHandledAcrossPlacements(t *testing.T) {
	mcfg := testModelCfg(false)
	got := runInfinity(t, mcfg, Config{Params: zero.OnNVMe, Optimizer: zero.OnNVMe})
	if got.stats.OnDemandGathers != 1 {
		t.Fatalf("OnDemandGathers = %d, want exactly 1 (first-iteration auto-registration)", got.stats.OnDemandGathers)
	}
}

// A working set over the GPU budget fails the step with an OOM error — at
// the first gather (64 B is below the largest parameter), or deeper into the
// forward pass with scopes open and parameters held (600..2100 B) — and the
// failed step leaves nothing behind: scope stack empty, every parameter
// re-partitioned, no budget block, pinned buffer or offloaded activation
// checkpoint held, nothing in flight. The engine stays usable: the next step fails the same way instead of
// tripping over stale state.
func TestGPUBudgetEnforced(t *testing.T) {
	tokens, targets := makeBatches(testModelCfg(false), 1, 2, testBatch)
	placements := []struct {
		name string
		cfg  Config
	}{
		{"resident", Config{Params: zero.OnCPU, Optimizer: zero.OnCPU}},
		{"nvme+prefetch+overlap", Config{Params: zero.OnNVMe, Optimizer: zero.OnNVMe, PrefetchDepth: 3, Overlap: true}},
		{"resident+ckpt-offload", Config{Params: zero.OnCPU, Optimizer: zero.OnCPU, OffloadActivations: true}},
	}
	for _, pl := range placements {
		mcfg := testModelCfg(pl.cfg.OffloadActivations)
		for _, budget := range []int64{64, 600, 1200, 2100} {
			t.Run(fmt.Sprintf("%s/%d", pl.name, budget), func(t *testing.T) {
				comm.Run(2, func(c *comm.Comm) {
					cfg := pl.cfg
					cfg.GPUMemory, cfg.LossScale, cfg.Seed = budget, 1, 1
					e, err := NewInfinityEngine(cfg, c, model.MustGPT(mcfg))
					if err != nil {
						t.Error(err)
						return
					}
					defer e.Close()
					var first error
					for attempt := 0; attempt < 2; attempt++ {
						_, serr := e.Step(tokens[0][c.Rank()], targets[0][c.Rank()], testBatch)
						if !ErrIsOOM(serr) {
							t.Errorf("attempt %d: step under a %d B budget returned %v, want OOM", attempt, budget, serr)
							return
						}
						if attempt == 0 {
							first = serr
						} else if serr.Error() != first.Error() {
							t.Errorf("second step failed differently: %v, first %v", serr, first)
						}
						if err := e.CheckIdle(); err != nil {
							t.Errorf("attempt %d: engine left dirty: %v", attempt, err)
						}
						if used := e.gpu.Used(); used != 0 {
							t.Errorf("attempt %d: %d B of the GPU budget still held", attempt, used)
						}
						if ws, ck := e.GPUTracker().Live(mem.CatWorkingSet), e.CPUTracker().Live(mem.CatActCkpt); ws != 0 || ck != 0 {
							t.Errorf("attempt %d: %d B working set, %d B offloaded checkpoints still accounted", attempt, ws, ck)
						}
						if e.nvme != nil {
							assertRingIdle(t, e)
						}
					}
				})
			})
		}
	}
}

// ckptThenGPT offloads one activation checkpoint before the wrapped model's
// first gather, so a step the budget aborts there has a checkpoint in the
// store (the real blocks offload only after their forward has fit).
type ckptThenGPT struct{ *model.GPT }

func (m ckptThenGPT) ForwardLoss(rt *module.Runtime, tokens, targets []int, batch int) float64 {
	rt.PutCheckpoint(tensor.New(tensor.FP32, 8))
	return m.GPT.ForwardLoss(rt, tokens, targets, batch)
}

// A step the budget aborts drops the activation checkpoints its forward pass
// had already offloaded, returning their bytes to the arena.
func TestGPUBudgetAbortDropsOffloadedCheckpoints(t *testing.T) {
	mcfg := testModelCfg(true)
	tokens, targets := makeBatches(mcfg, 1, 1, testBatch)
	comm.Run(1, func(c *comm.Comm) {
		e, err := NewInfinityEngine(Config{Params: zero.OnCPU, Optimizer: zero.OnCPU,
			OffloadActivations: true, GPUMemory: 64, LossScale: 1, Seed: 1}, c, ckptThenGPT{model.MustGPT(mcfg)})
		if err != nil {
			t.Error(err)
			return
		}
		defer e.Close()
		if _, serr := e.Step(tokens[0][0], targets[0][0], testBatch); !ErrIsOOM(serr) {
			t.Errorf("step returned %v, want OOM", serr)
		}
		ck := e.CPUTracker()
		if ck.Peak(mem.CatActCkpt) != 32 || ck.Live(mem.CatActCkpt) != 0 {
			t.Errorf("offloaded checkpoints: peak %d B (want 32), %d B still live after the abort",
				ck.Peak(mem.CatActCkpt), ck.Live(mem.CatActCkpt))
		}
	})
}

// assertRingIdle checks the NVMe tier's staging ring is idle: no entry holds
// a request and every ticket has been waited.
func assertRingIdle(t *testing.T, e *InfinityEngine) {
	t.Helper()
	if n := e.nvme.n; n != 0 {
		t.Errorf("%d staging entries still counted in use", n)
	}
	for k := range e.nvme.ring {
		if en := &e.nvme.ring[k]; en.busy || en.pending {
			t.Errorf("staging entry %d: busy %v, request never waited %v", k, en.busy, en.pending)
		}
	}
}

// The per-device trackers are where the placements show: the same shards
// count against the GPU or the CPU tracker, or neither on NVMe (which pins
// staging memory on the CPU instead); the gathered working set is always GPU
// and matches Stats.MaxLiveParamBytes.
func TestTrackersAttributePlacements(t *testing.T) {
	mcfg := testModelCfg(false)
	tokens, targets := makeBatches(mcfg, 1, 2, testBatch)
	for _, tc := range []struct {
		params, opt zero.Placement
	}{
		{zero.OnGPU, zero.OnGPU}, {zero.OnCPU, zero.OnCPU}, {zero.OnGPU, zero.OnCPU}, {zero.OnNVMe, zero.OnCPU}, {zero.OnNVMe, zero.OnNVMe},
	} {
		t.Run(fmt.Sprintf("%v-%v", tc.params, tc.opt), func(t *testing.T) {
			comm.Run(2, func(c *comm.Comm) {
				g := model.MustGPT(mcfg)
				e, err := NewInfinityEngine(Config{Params: tc.params, Optimizer: tc.opt, LossScale: 1, Seed: 1}, c, g)
				if err != nil {
					t.Error(err)
					return
				}
				defer e.Close()
				if _, err := e.Step(tokens[0][c.Rank()], targets[0][c.Rank()], testBatch); err != nil {
					t.Error(err)
				}
				var elems int64
				for _, p := range module.AllParams(g) {
					elems += int64(comm.ShardLen(p.Len(), 2))
				}
				gpu, cpu, st := e.GPUTracker(), e.CPUTracker(), e.Stats()
				want := func(tr *mem.Tracker, cat mem.Category, on bool, bytes int64) {
					if !on {
						bytes = 0
					}
					if got := tr.Live(cat); got != bytes {
						t.Errorf("%v: %d B live, want %d", tr, got, bytes)
					}
				}
				want(gpu, mem.CatParamsFP16, tc.params == zero.OnGPU, 2*elems)
				want(cpu, mem.CatParamsFP16, tc.params == zero.OnCPU, 2*elems)
				want(gpu, mem.CatOptimState, tc.opt == zero.OnGPU, 12*elems)
				want(cpu, mem.CatOptimState, tc.opt == zero.OnCPU, 12*elems)
				want(cpu, mem.CatPinnedStage, true, st.PinnedBytes)
				want(gpu, mem.CatWorkingSet, true, 0)
				if peak := gpu.Peak(mem.CatWorkingSet); peak == 0 || peak != st.MaxLiveParamBytes {
					t.Errorf("working-set peak %d B, Stats.MaxLiveParamBytes %d", peak, st.MaxLiveParamBytes)
				}
			})
		})
	}
}

func TestGPUBudgetPeakTracked(t *testing.T) {
	mcfg := testModelCfg(false)
	tokens, targets := makeBatches(mcfg, 1, 1, testBatch)
	comm.Run(1, func(c *comm.Comm) {
		g := model.MustGPT(mcfg)
		e, err := NewInfinityEngine(Config{
			Params: zero.OnCPU, Optimizer: zero.OnCPU,
			GPUMemory: 1 << 20, LossScale: 1, Seed: 1,
		}, c, g)
		if err != nil {
			t.Error(err)
			return
		}
		defer e.Close()
		if _, serr := e.Step(tokens[0][0], targets[0][0], testBatch); serr != nil {
			t.Errorf("step failed: %v", serr)
			return
		}
		st := e.Stats()
		if st.GPUPeakBytes == 0 {
			t.Error("no GPU peak recorded")
		}
		// Fetch-and-release keeps the peak far below the full fp16 model.
		full := int64(0)
		for _, p := range module.AllParams(g) {
			full += p.FP16Bytes()
		}
		if st.GPUPeakBytes >= full {
			t.Errorf("peak %d not below full model %d — release not working", st.GPUPeakBytes, full)
		}
	})
}

func TestFileBackedNVMeStore(t *testing.T) {
	mcfg := testModelCfg(false)
	tokens, targets := makeBatches(mcfg, 2, 1, testBatch)
	dir := t.TempDir()
	comm.Run(1, func(c *comm.Comm) {
		g := model.MustGPT(mcfg)
		e, err := NewInfinityEngine(Config{
			Params: zero.OnNVMe, Optimizer: zero.OnNVMe,
			NVMeDir: dir, LossScale: 32, Seed: 3,
		}, c, g)
		if err != nil {
			t.Error(err)
			return
		}
		defer e.Close()
		for s := 0; s < 2; s++ {
			if _, serr := e.Step(tokens[s][0], targets[s][0], testBatch); serr != nil {
				t.Errorf("step %d: %v", s, serr)
				return
			}
		}
		if e.Stats().NVMeBytesWritten == 0 {
			t.Error("file store saw no writes")
		}
	})
}
