package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/nvme"
	"repro/internal/zero"
)

var (
	errInjectedRead  = errors.New("injected read failure")
	errInjectedWrite = errors.New("injected write failure")
)

// failingStore wraps a Store and fails every ReadAt — or, with writes set,
// every WriteAt — after the first allow successes. Requests of the other
// kind always succeed; so do requests outside only, when it is set, and
// they are not counted.
type failingStore struct {
	nvme.Store
	writes bool
	allow  int64
	only   []nvme.Region
	seen   atomic.Int64
}

func (s *failingStore) fails(write bool, off int64) bool {
	if write != s.writes {
		return false
	}
	if s.only != nil && !slices.ContainsFunc(s.only, func(r nvme.Region) bool {
		return off >= r.Offset && off < r.Offset+r.Size
	}) {
		return false
	}
	return s.seen.Add(1) > s.allow
}

func (s *failingStore) ReadAt(p []byte, off int64) (int, error) {
	if s.fails(false, off) {
		return 0, errInjectedRead
	}
	return s.Store.ReadAt(p, off)
}

func (s *failingStore) WriteAt(p []byte, off int64) (int, error) {
	if s.fails(true, off) {
		return 0, errInjectedWrite
	}
	return s.Store.WriteAt(p, off)
}

// The streamed optimizer step's error paths: a clean step, then a step
// whose third optimizer-record read — or write-back — fails, with the fp16
// shards on CPU and on NVMe. At a failed read the pipeline has processed
// parameters (writes in flight), a failed current read and an issued read
// of the next parameter outstanding at once; a failed write surfaces when
// its write-back is reaped. The step must return the injected error with
// the staging ring idle, nothing still in flight, and no goroutine left
// behind.
func TestOptimizerStepNVMeErrorReleasesPrefetchSlot(t *testing.T) {
	mcfg := testModelCfg(false)
	tokens, targets := makeBatches(mcfg, 2, 1, testBatch)
	for _, params := range []zero.Placement{zero.OnCPU, zero.OnNVMe} {
		for _, write := range []bool{false, true} {
			want, op := errInjectedRead, "read"
			if write {
				want, op = errInjectedWrite, "write"
			}
			t.Run(fmt.Sprintf("params=%v/%s", params, op), func(t *testing.T) {
				comm.Run(1, func(c *comm.Comm) {
					e, err := NewInfinityEngine(Config{Params: params, Optimizer: zero.OnNVMe,
						LossScale: 32, Seed: 2}, c, model.MustGPT(mcfg))
					if err != nil {
						t.Error(err)
						return
					}
					defer e.Close()
					var opt []nvme.Region
					for i := range e.nvme.slots {
						if r := e.nvme.slots[i].optRegion; r.Size > 0 {
							opt = append(opt, r)
						}
					}
					// Only optimizer records count, one request each per
					// step: the first step is clean, the second fails at
					// its third parameter. The old engine stays open so
					// none of its workers exits mid-count.
					defer e.nvme.io.Close()
					fs := &failingStore{Store: e.nvme.store, writes: write, allow: int64(len(opt)) + 2, only: opt}
					e.nvme.io = nvme.NewEngine(fs, nvme.Options{Workers: 2})

					if _, err := e.Step(tokens[0][0], targets[0][0], testBatch); err != nil {
						t.Errorf("clean step: %v", err)
						return
					}
					before := runtime.NumGoroutine()
					_, serr := e.Step(tokens[1][0], targets[1][0], testBatch)
					after := runtime.NumGoroutine()
					if !errors.Is(serr, want) {
						t.Errorf("step returned %v, want the injected %v", serr, want)
					}
					assertRingIdle(t, e)
					if after != before {
						t.Errorf("%d goroutines after the failed step, %d before", after, before)
					}
				})
			})
		}
	}
}

// A failed NVMe shard read — synchronous, or a read-ahead consumed later —
// is fatal rather than a step error: it is local to this rank, whose peers
// are already committed to the gather the shard feeds. The panic carries the
// I/O error and names the shard, and the staging ring is left idle.
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
					assertRingIdle(t, e)
				}()
				_, serr := e.Step(tokens[0][0], targets[0][0], testBatch)
				t.Errorf("step with failing shard reads returned (err %v)", serr)
			})
		})
	}
}
