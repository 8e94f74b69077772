package zero_test

import (
	"runtime"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/zero"
)

// The zero-allocation regression tests drive the one engine body through
// its constructors — ZeRO-3 (overlap + prefetch on); ZeRO-Infinity with both
// states placed on CPU, which is the same //zinf:hotpath body over the same
// resident tier, or both on NVMe over an in-memory and a file-backed store,
// where the streamed optimizer step, read-ahead and write-back run too; and
// the replicated stages DDP, ZeRO-1 and ZeRO-2, DDP and ZeRO-2 also with
// their gradient reductions launched asynchronously. With the
// allocation-free stub model (stub.go) every heap allocation observed
// during a step is attributable to the engine+comm+tensor+nvme hot path:
// gathers, async collectives, gradient reduction, the optimizer phase, NVMe
// requests and loss-scale bookkeeping. After warm-up steps fill the scratch arenas, the op pool and
// the learned gather trace, a steady-state step must perform zero heap
// allocations.

// allocEngine is one row of the zero-allocation tables: how to build the
// engine under test, returning its step function and its own per-step
// allocation counter. t owns whatever the engine leaves on disk.
type allocEngine struct {
	name string
	new  func(t *testing.T, c *comm.Comm, m zero.Model, lossScale float64, seed uint64) (step func(tok, tgt []int, batch int), perStep func() uint64, err error)
}

var allocEngines = []allocEngine{
	{"zero3", func(_ *testing.T, c *comm.Comm, m zero.Model, lossScale float64, seed uint64) (func(tok, tgt []int, batch int), func() uint64, error) {
		e, err := zero.NewZ3Engine(zero.Config{LossScale: lossScale, Seed: seed, Overlap: true, PrefetchDepth: 2}, c, m)
		if err != nil {
			return nil, nil, err
		}
		return func(tok, tgt []int, batch int) { e.Step(tok, tgt, batch) }, func() uint64 { return e.AllocsPerStep }, nil
	}},
	{"infinity-cpu", infinityAllocEngine(zero.OnCPU, false)},
	{"infinity-nvme-mem", infinityAllocEngine(zero.OnNVMe, false)},
	{"infinity-nvme-file", infinityAllocEngine(zero.OnNVMe, true)},
	{"ddp", dpAllocEngine(zero.StageDDP, false)},
	{"ddp-overlap", dpAllocEngine(zero.StageDDP, true)},
	{"zero1", dpAllocEngine(zero.Stage1, false)},
	{"zero2", dpAllocEngine(zero.Stage2, false)},
	{"zero2-overlap", dpAllocEngine(zero.Stage2, true)},
}

// infinityAllocEngine is the allocEngines row of ZeRO-Infinity with both
// state classes at where; file backs an NVMe store with a file in a test
// temp directory instead of memory.
func infinityAllocEngine(where zero.Placement, file bool) func(t *testing.T, c *comm.Comm, m zero.Model, lossScale float64, seed uint64) (func(tok, tgt []int, batch int), func() uint64, error) {
	return func(t *testing.T, c *comm.Comm, m zero.Model, lossScale float64, seed uint64) (func(tok, tgt []int, batch int), func() uint64, error) {
		cfg := core.Config{Params: where, Optimizer: where,
			LossScale: lossScale, Seed: seed, Overlap: true, PrefetchDepth: 2}
		if file {
			cfg.NVMeDir = t.TempDir()
		}
		e, err := core.NewInfinityEngine(cfg, c, m)
		if err != nil {
			return nil, nil, err
		}
		t.Cleanup(e.Close)
		step := func(tok, tgt []int, batch int) {
			if _, err := e.Step(tok, tgt, batch); err != nil {
				panic(err)
			}
		}
		return step, func() uint64 { return e.Stats().AllocsPerStep }, nil
	}
}

// dpAllocEngine is the allocEngines row of the replicated stage, with
// overlap (and a prefetch depth, which the replicated stages ignore) on or
// off.
func dpAllocEngine(stage zero.Stage, overlap bool) func(t *testing.T, c *comm.Comm, m zero.Model, lossScale float64, seed uint64) (func(tok, tgt []int, batch int), func() uint64, error) {
	return func(_ *testing.T, c *comm.Comm, m zero.Model, lossScale float64, seed uint64) (func(tok, tgt []int, batch int), func() uint64, error) {
		cfg := zero.Config{Stage: stage, LossScale: lossScale, Seed: seed, Overlap: overlap}
		if overlap {
			cfg.PrefetchDepth = 2
		}
		e, err := zero.NewDPEngine(cfg, c, m)
		if err != nil {
			return nil, nil, err
		}
		return func(tok, tgt []int, batch int) { e.Step(tok, tgt, batch) }, func() uint64 { return e.AllocsPerStep }, nil
	}
}

// TestSteadyStateZeroAllocs asserts that after warm-up, a training step with
// overlap and gather prefetch enabled performs zero heap allocations in the
// engine+comm+tensor hot path, and that the engine's own per-step counter
// agrees. The stub's parameter length is not divisible by the rank count,
// which exercises padded-tail zeroing.
func TestSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	for _, row := range allocEngines {
		t.Run(row.name, func(t *testing.T) {
			minAllocs, minPerStep := allocFloor(t, func(c *comm.Comm) (func(), func() uint64, error) {
				step, perStep, err := row.new(t, c, zero.NewAllocFreeStub(4, 51), 1, 11)
				tok := make([]int, 1)
				tgt := make([]int, 1)
				return func() { step(tok, tgt, 1) }, perStep, err
			})
			if minAllocs != 0 {
				t.Fatalf("every steady-state step performed heap allocations (min %d over windows), want 0", minAllocs)
			}
			if minPerStep != 0 {
				t.Fatalf("engine AllocsPerStep min = %d after steady state, want 0", minPerStep)
			}
		})
	}
}

// allocFloor runs newStep's engine on 2 ranks, warms it up, then measures
// the process-global mallocs delta of whole-world steps (all ranks inside,
// fenced by barriers), returning the minimum delta and the minimum
// engine-reported AllocsPerStep over the windows (rank 0's view). Hot-path
// allocations are deterministic — an arena or op-pool miss would recur in
// every window — so taking the minimum filters the Go runtime's own
// sporadic, scheduling-dependent bookkeeping allocations (unprofiled
// ~48-byte park/GC internals) without masking a real engine leak.
func allocFloor(t *testing.T, newStep func(c *comm.Comm) (step func(), perStep func() uint64, err error)) (uint64, uint64) {
	t.Helper()
	const (
		ranks   = 2
		warmup  = 3
		windows = 4
	)
	minAllocs := ^uint64(0)
	minPerStep := ^uint64(0)
	comm.Run(ranks, func(c *comm.Comm) {
		step, perStep, err := newStep(c)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < warmup; i++ {
			step()
		}
		// Settle the heap once; the barrier keeps every rank's warm-up tail
		// out of the first window.
		c.AllReduceScalar(0)
		if c.Rank() == 0 {
			runtime.GC()
		}
		var ms0, ms1 runtime.MemStats
		for w := 0; w < windows; w++ {
			if c.Rank() == 0 {
				runtime.ReadMemStats(&ms0)
			}
			// Nobody enters the window before ms0 is read.
			c.AllReduceScalar(0)
			step()
			// Every rank's step lands before ms1 is read.
			c.AllReduceScalar(0)
			if c.Rank() == 0 {
				runtime.ReadMemStats(&ms1)
				if d := ms1.Mallocs - ms0.Mallocs; d < minAllocs {
					minAllocs = d
				}
				if p := perStep(); p < minPerStep {
					minPerStep = p
				}
			}
		}
	})
	return minAllocs, minPerStep
}

// TestAFModelLossMatchesAcrossOverlap sanity-checks the stub model: the
// allocation-free path must produce the same trajectory with and without
// overlap, so the zero-alloc test is exercising the real engine semantics.
func TestAFModelLossMatchesAcrossOverlap(t *testing.T) {
	losses := func(overlapOn bool) []float64 {
		var out []float64
		comm.Run(2, func(c *comm.Comm) {
			m := zero.NewAllocFreeStub(3, 40)
			cfg := zero.Config{LossScale: 1, Seed: 5}
			if overlapOn {
				cfg.Overlap = true
				cfg.PrefetchDepth = 2
			}
			e, err := zero.NewZ3Engine(cfg, c, m)
			if err != nil {
				t.Error(err)
				return
			}
			tok := make([]int, 1)
			tgt := make([]int, 1)
			var l []float64
			for i := 0; i < 4; i++ {
				l = append(l, e.Step(tok, tgt, 1).Loss)
			}
			if c.Rank() == 0 {
				out = l
			}
		})
		return out
	}
	a, b := losses(false), losses(true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d: sync loss %v != overlap loss %v", i, a[i], b[i])
		}
	}
}
