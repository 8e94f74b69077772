package core

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/nvme"
	"repro/internal/zero"
)

var errInjectedRead = errors.New("injected read failure")

// failingStore wraps a Store and fails every ReadAt after the first allow
// successes. Writes always succeed.
type failingStore struct {
	nvme.Store
	allow int64
	reads atomic.Int64
}

func (s *failingStore) ReadAt(p []byte, off int64) (int, error) {
	if s.reads.Add(1) > s.allow {
		return 0, errInjectedRead
	}
	return s.Store.ReadAt(p, off)
}

// Regression test for the optimizerStepNVMe error path: when a streamed
// optimizer read fails, the already-issued prefetch read for the next
// parameter used to be abandoned (its pinned buffer never released, its
// in-flight I/O never awaited) and outstanding async writes were not drained
// before returning. After the error every pinned buffer must be back in the
// pool and no I/O may still be in flight.
func TestOptimizerStepNVMeErrorReleasesPrefetchSlot(t *testing.T) {
	mcfg := testModelCfg(false)
	tokens, targets := makeBatches(mcfg, 1, 1, testBatch)
	comm.Run(1, func(c *comm.Comm) {
		g := model.MustGPT(mcfg)
		e, err := NewInfinityEngine(Config{
			Params: zero.OnCPU, Optimizer: zero.OnNVMe,
			LossScale: 32, Seed: 2,
		}, c, g)
		if err != nil {
			t.Error(err)
			return
		}
		defer e.Close()

		// Swap in an I/O engine whose store fails reads after the first one:
		// the pipeline then has a processed parameter (async write in
		// flight), a failed current read, and a failing prefetched read all
		// outstanding at once.
		e.nvme.io.Close()
		fs := &failingStore{Store: e.nvme.store, allow: 1}
		e.nvme.io = nvme.NewEngine(fs, nvme.Options{Workers: 2})

		_, serr := e.Step(tokens[0][0], targets[0][0], testBatch)
		if serr == nil {
			t.Error("step with failing optimizer reads succeeded")
			return
		}
		if !errors.Is(serr, errInjectedRead) {
			t.Errorf("unexpected error: %v", serr)
		}
		// Every pinned buffer must be back: the failed current slot, the
		// abandoned prefetch slot, and the write slots via their reapers.
		assertPinnedPoolFull(t, e)
	})
}

// A failed NVMe shard read — synchronous, or a read-ahead consumed later —
// is fatal rather than a step error: it is local to this rank, whose peers
// are already committed to the gather the shard feeds. The panic carries the
// I/O error and names the shard, and the staging buffer is back in the pool.
func TestShardReadFailureIsFatal(t *testing.T) {
	mcfg := testModelCfg(false)
	tokens, targets := makeBatches(mcfg, 1, 1, testBatch)
	for _, depth := range []int{0, 2} {
		t.Run(fmt.Sprintf("prefetch=%d", depth), func(t *testing.T) {
			comm.Run(1, func(c *comm.Comm) {
				e, err := NewInfinityEngine(Config{Params: zero.OnNVMe, Optimizer: zero.OnCPU,
					PrefetchDepth: depth, LossScale: 32, Seed: 2}, c, model.MustGPT(mcfg))
				if err != nil {
					t.Error(err)
					return
				}
				defer e.Close()
				e.nvme.io.Close()
				e.nvme.io = nvme.NewEngine(&failingStore{Store: e.nvme.store, allow: 3}, nvme.Options{Workers: 2})
				defer func() {
					err, _ := recover().(error)
					if !errors.Is(err, errInjectedRead) || !strings.Contains(fmt.Sprint(err), "read shard") {
						t.Errorf("step panicked with %v, want the injected shard-read failure", err)
					}
					e.nvme.DrainReads()
					assertPinnedPoolFull(t, e)
				}()
				_, serr := e.Step(tokens[0][0], targets[0][0], testBatch)
				t.Errorf("step with failing shard reads returned (err %v)", serr)
			})
		})
	}
}
