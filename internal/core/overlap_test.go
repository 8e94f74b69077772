package core

import (
	"testing"

	"repro/internal/zero"
)

// The overlap acceptance claim for the infinity engine: async allgathers,
// the comm prefetcher and async reduce-scatters — composed with the NVMe
// read prefetcher behind the shared PrefetchDepth budget — leave the
// training trajectory bit-identical to plain DDP for every placement.
func TestInfinityOverlapBitIdenticalToDDP(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ckpt bool
	}{
		{"cpu-cpu+overlap", Config{Params: zero.OnCPU, Optimizer: zero.OnCPU,
			PrefetchDepth: 2, Overlap: true}, false},
		{"gpu-gpu+overlap", Config{Params: zero.OnGPU, Optimizer: zero.OnGPU,
			PrefetchDepth: 3, Overlap: true}, false},
		{"nvme-nvme+overlap", Config{Params: zero.OnNVMe, Optimizer: zero.OnNVMe,
			PrefetchDepth: 3, Overlap: true}, false},
		{"nvme-nvme+overlap+ckpt-offload", Config{Params: zero.OnNVMe, Optimizer: zero.OnNVMe,
			PrefetchDepth: 2, Overlap: true, OffloadActivations: true}, true},
		{"async-reduce-only", Config{Params: zero.OnCPU, Optimizer: zero.OnCPU,
			Overlap: true}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mcfg := testModelCfg(tc.ckpt)
			ddp := runDDP(t, mcfg)
			got := runInfinity(t, mcfg, tc.cfg)
			assertSame(t, tc.name, ddp, got)
		})
	}
}

// With both stages on NVMe and overlap on, the two prefetch stages chain:
// speculative NVMe reads are consumed by speculative allgathers, which are
// consumed by gathers.
func TestOverlapStagesComposeOnNVMe(t *testing.T) {
	mcfg := testModelCfg(false)
	got := runInfinity(t, mcfg, Config{Params: zero.OnNVMe, Optimizer: zero.OnNVMe,
		PrefetchDepth: 3, Overlap: true})
	s := got.stats
	if s.PrefetchIssued == 0 || s.PrefetchHits == 0 {
		t.Fatalf("NVMe stage idle: issued %d hits %d", s.PrefetchIssued, s.PrefetchHits)
	}
	if s.CommPrefetchIssued == 0 || s.CommPrefetchHits == 0 {
		t.Fatalf("comm stage idle: issued %d hits %d", s.CommPrefetchIssued, s.CommPrefetchHits)
	}
	if s.CommPrefetchHits > s.CommPrefetchIssued {
		t.Fatalf("comm hits %d > issued %d", s.CommPrefetchHits, s.CommPrefetchIssued)
	}
	if s.AsyncReduces == 0 {
		t.Fatal("no reduce-scatter launched asynchronously")
	}
}

// Overlap with a speculation depth far beyond the four-buffer pinned pool
// must not deadlock (the same budget invariant as the NVMe-only prefetcher).
func TestOverlapRespectsPinnedBudget(t *testing.T) {
	mcfg := testModelCfg(false)
	got := runInfinity(t, mcfg, Config{Params: zero.OnNVMe, Optimizer: zero.OnNVMe,
		PrefetchDepth: 16, Overlap: true})
	ddp := runDDP(t, mcfg)
	assertSame(t, "tight-pool-overlap", ddp, got)
}
