package zero

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/model"
)

// Overflow steps under the broadcast strategy must skip cleanly: the
// owner-held gradient shards are dropped, no parameter moves, and the scale
// halves — same semantics as slicing.
func TestBroadcastPartitionOverflowSkip(t *testing.T) {
	mcfg := testCfg()
	tokens, targets := makeBatches(mcfg, 1, testRanks, testBatch)
	comm.Run(testRanks, func(c *comm.Comm) {
		g := model.MustGPT(mcfg)
		e, err := NewZ3Engine(Config{LossScale: 1e30, DynamicLossScale: true, Seed: 5,
			Partition: PartitionBroadcast}, c, g)
		if err != nil {
			t.Error(err)
			return
		}
		before := e.FullParams()
		res := e.Step(tokens[0][c.Rank()], targets[0][c.Rank()], testBatch)
		if !res.Skipped {
			t.Error("overflow step was not skipped")
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

// Under owner-rank broadcast, each rank holds optimizer state only for the
// parameters it owns (round-robin by index).
func TestBroadcastPartitionShardsByOwner(t *testing.T) {
	mcfg := testCfg()
	comm.Run(testRanks, func(c *comm.Comm) {
		g := model.MustGPT(mcfg)
		e, err := NewZ3Engine(Config{LossScale: 64, Seed: 3, Partition: PartitionBroadcast}, c, g)
		if err != nil {
			t.Error(err)
			return
		}
		res := e.tier.(*Resident)
		for i, p := range e.params {
			ps := e.states[p]
			wantOwner := i % c.Size()
			if ps.bcastRoot != wantOwner {
				t.Errorf("param %s owner %d, want %d", p.Name, ps.bcastRoot, wantOwner)
			}
			hasShard := len(res.Half[i]) > 0
			if hasShard != (wantOwner == c.Rank()) {
				t.Errorf("rank %d param %s: shard presence %v", c.Rank(), p.Name, hasShard)
			}
			if hasShard && len(res.Half[i]) != p.Len() {
				t.Errorf("param %s shard len %d, want full %d", p.Name, len(res.Half[i]), p.Len())
			}
		}
		if len(e.owned) >= len(e.params) && c.Size() > 1 {
			t.Errorf("rank %d owns %d of %d params — not partitioned", c.Rank(), len(e.owned), len(e.params))
		}
	})
}

// The checkpoint-gather satellite: FullParams' transient fp16 gather view
// must come from the engine arena, so a warm call allocates only the
// returned float32 vectors and the result map — not per-parameter gather
// scratch.
func TestFullParamsGatherScratchPooled(t *testing.T) {
	mcfg := testCfg()
	comm.Run(1, func(c *comm.Comm) {
		g := model.MustGPT(mcfg)
		e, err := NewZ3Engine(Config{LossScale: 64, Seed: 3}, c, g)
		if err != nil {
			t.Error(err)
			return
		}
		e.FullParams() // warm the arena size classes
		nparams := len(e.params)
		allocs := testing.AllocsPerRun(10, func() {
			e.FullParams()
		})
		// Budget: one allocation for each returned vector, one for the map,
		// plus slack for map growth — and nothing for the fp16 gather
		// buffers, which previously doubled the count.
		budget := float64(2*nparams + 4)
		if allocs > budget {
			t.Fatalf("FullParams allocated %.1f/call for %d params (budget %.0f): gather scratch not pooled",
				allocs, nparams, budget)
		}
	})
}

// FullParams under the broadcast strategy must agree with the slicing
// strategy after identical training (the consolidation path is
// strategy-independent).
func TestFullParamsAgreeAcrossStrategies(t *testing.T) {
	slice := runEngine(t, Config{Stage: Stage3, LossScale: 256, Seed: 42})
	bcast := runEngine(t, Config{Stage: Stage3, LossScale: 256, Seed: 42, Partition: PartitionBroadcast})
	if len(slice.params) == 0 || len(bcast.params) != len(slice.params) {
		t.Fatalf("captured %d and %d params", len(slice.params), len(bcast.params))
	}
	if name, ok := sameParams(slice.params, bcast.params); !ok {
		t.Fatalf("parameter %s differs between the strategies", name)
	}
}
