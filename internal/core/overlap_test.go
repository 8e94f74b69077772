package core

import (
	"testing"

	"repro/internal/zero"
)

// With both stages on NVMe and overlap on, the two prefetch stages chain:
// speculative NVMe reads are consumed by speculative allgathers, which are
// consumed by gathers. Once the first step has learned the gather trace,
// nearly every gather is served by a speculative one, and every read-ahead
// feeds a gather instead of being abandoned. Each step opens with a few
// synchronous gathers while the reads mature, so the model is four layers
// deep, like the benchmark's, for the 90% floor.
func TestOverlapStagesComposeOnNVMe(t *testing.T) {
	mcfg := testModelCfg(false)
	mcfg.Layers = 4
	for _, depth := range []int{2, 3} {
		got := runInfinity(t, mcfg, Config{Params: zero.OnNVMe, Optimizer: zero.OnNVMe,
			PrefetchDepth: depth, Overlap: true})
		s := got.stats
		if s.CommPrefetchHits > s.CommPrefetchIssued {
			t.Fatalf("depth %d: comm hits %d > issued %d", depth, s.CommPrefetchHits, s.CommPrefetchIssued)
		}
		if s.AsyncReduces == 0 {
			t.Fatalf("depth %d: no reduce-scatter launched asynchronously", depth)
		}
		warm, last := got.after[0], got.after[len(got.after)-1]
		gathers := last.Gathers - warm.Gathers
		hits := last.CommPrefetchHits - warm.CommPrefetchHits
		if gathers == 0 || 10*hits < 9*gathers {
			t.Fatalf("depth %d: after warm-up, speculative allgathers served %d of %d gathers, want >= 90%%", depth, hits, gathers)
		}
		if issued, used := last.PrefetchIssued-warm.PrefetchIssued, last.PrefetchHits-warm.PrefetchHits; issued == 0 || issued != used {
			t.Fatalf("depth %d: after warm-up, %d NVMe read-aheads issued but %d consumed", depth, issued, used)
		}
	}
}

// Overlap with a speculation depth far beyond the four-entry staging ring
// must not deadlock (the same budget invariant as the NVMe-only prefetcher).
func TestOverlapRespectsPinnedBudget(t *testing.T) {
	mcfg := testModelCfg(false)
	got := runInfinity(t, mcfg, Config{Params: zero.OnNVMe, Optimizer: zero.OnNVMe,
		PrefetchDepth: 16, Overlap: true})
	ddp := runDDP(t, mcfg)
	assertSame(t, "tight-pool-overlap", ddp, got)
}
