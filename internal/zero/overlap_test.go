package zero

import (
	"reflect"
	"testing"

	"repro/internal/comm"
)

func TestZ3OverlapPrefetcherIssuesAndHits(t *testing.T) {
	out := runEngine(t, Config{Stage: Stage3, LossScale: 256, Seed: 42, PrefetchDepth: 2, Overlap: true})
	z3 := out.eng
	if z3.PrefetchIssued == 0 {
		t.Fatal("gather prefetcher issued nothing")
	}
	if z3.PrefetchHits == 0 {
		t.Fatal("no speculative allgather was consumed")
	}
	if z3.PrefetchHits > z3.PrefetchIssued {
		t.Fatalf("hits %d > issued %d", z3.PrefetchHits, z3.PrefetchIssued)
	}
	if z3.AsyncReduces == 0 {
		t.Fatal("no reduce-scatter launched asynchronously")
	}
}

// The asynchronous gradient reductions are bounded to reduceWindow in
// flight, so the padded fp16 gradient copies they pin never outnumber the
// window: the fp16 scratch arena warms up with about reduceWindow buffers,
// not one per parameter. Every parameter of the stub is in one size class,
// so each miss is a buffer the window kept alive. The replicated stages'
// all-reduces take the same path as the partitioned stages' reductions.
func TestAsyncReducesStayWithinWindow(t *testing.T) {
	const layers, steps = 20, 2
	for _, stage := range []Stage{Stage3, Stage2, Stage1, StageDDP} {
		t.Run(stage.String(), func(t *testing.T) {
			comm.Run(2, func(c *comm.Comm) {
				e, err := NewShardedEngine(Config{Stage: stage, LossScale: 1, Seed: 3, Overlap: true, PrefetchDepth: 2},
					c, NewAllocFreeStub(layers, 51), Attachments{})
				if err != nil {
					t.Error(err)
					return
				}
				tok, tgt := make([]int, 1), make([]int, 1)
				for s := 0; s < steps; s++ {
					mustStep(t)(e.Step(tok, tgt, 1))
				}
				gets, hits, _ := e.sc.F16.Stats()
				if misses := gets - hits; misses > reduceWindow+2 {
					t.Errorf("rank %d: %d fp16 arena misses over %d steps of %d parameters, want <= %d",
						c.Rank(), misses, steps, layers, reduceWindow+2)
				}
				if e.AsyncReduces != steps*layers {
					t.Errorf("rank %d: %d async reductions, want %d", c.Rank(), e.AsyncReduces, steps*layers)
				}
			})
		})
	}
}

// drainReduces folds the oldest issued reductions first, keeps the newest
// keep in issue order at the front of the queue, and zeroes the vacated
// tail. The zero Ticket is a completed ticket, so the queue can be filled
// without launching collectives.
func TestDrainReducesKeepsNewestInIssueOrder(t *testing.T) {
	comm.Run(1, func(c *comm.Comm) {
		e, err := NewShardedEngine(Config{Stage: Stage3, LossScale: 1, Seed: 3}, c, NewAllocFreeStub(6, 8), Attachments{})
		if err != nil {
			t.Error(err)
			return
		}
		defer e.dropGradShards()
		var issued []*pstate
		for _, p := range e.params {
			ps := e.states[p]
			issued = append(issued, ps)
			e.pendingReduces = append(e.pendingReduces,
				pendingReduce{ps: ps, gs: e.sc.F32.Get(ps.shardLen), gh: e.sc.F16.Get(ps.shardLen)})
		}
		folded := func() (n int) {
			for _, ps := range issued {
				if ps.gradShard != nil {
					n++
				}
			}
			return n
		}

		e.drainReduces(4)
		for i, ps := range issued {
			if got, want := ps.gradShard != nil, i < 2; got != want {
				t.Errorf("reduction %d folded = %v, want only the two oldest folded", i, got)
				return
			}
		}
		var kept []*pstate
		for _, r := range e.pendingReduces {
			kept = append(kept, r.ps)
		}
		if !reflect.DeepEqual(kept, issued[2:]) {
			t.Errorf("queue kept %d entries out of issue order", len(kept))
			return
		}
		for i, r := range e.pendingReduces[len(e.pendingReduces):cap(e.pendingReduces)][:2] {
			if r.ps != nil || r.gs != nil || r.gh != nil {
				t.Errorf("vacated entry %d not zeroed", i)
				return
			}
		}

		if e.drainReduces(4); len(e.pendingReduces) != 4 || folded() != 2 {
			t.Errorf("draining to the current length folded %d", folded()-2)
			return
		}
		if e.drainReduces(0); len(e.pendingReduces) != 0 || folded() != len(issued) {
			t.Errorf("full drain left %d, folded %d of %d", len(e.pendingReduces), folded(), len(issued))
		}
	})
}
