package core

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/module"
	"repro/internal/zero"
)

// Stats must surface the fabric's modeled traffic: with a topology
// installed, the gather collective reports bytes, simulated seconds and a
// positive achieved aggregate bandwidth — and the slicing strategy's gather
// bandwidth beats the owner-broadcast strategy's on the same topology.
func TestStatsReportCommTrafficAndSlicingWins(t *testing.T) {
	topo := &comm.Topology{NodeSize: 2, IntraGBps: 100, InterGBps: 10}
	mcfg := testModelCfg(false)

	slice := runInfinityOn(t, mcfg, Config{Overlap: true, PrefetchDepth: 2}, topo)
	bcast := runInfinityOn(t, mcfg, Config{Partition: zero.PartitionBroadcast,
		Overlap: true, PrefetchDepth: 2}, topo)

	ag, ok := slice.stats.CommTraffic["allgatherhalfdecode"]
	if !ok || ag.Ops == 0 || ag.Bytes() == 0 || ag.Seconds <= 0 {
		t.Fatalf("slicing allgather traffic missing or untimed: %+v", ag)
	}
	bc, ok := bcast.stats.CommTraffic["broadcasthalf"]
	if !ok || bc.Ops == 0 || bc.Bytes() == 0 || bc.Seconds <= 0 {
		t.Fatalf("broadcast gather traffic missing or untimed: %+v", bc)
	}
	if ag.AggGBps() <= bc.AggGBps() {
		t.Fatalf("1/dp slicing gather %.2f GB/s not above owner broadcast %.2f GB/s",
			ag.AggGBps(), bc.AggGBps())
	}
	if slice.stats.CommGBps <= 0 || bcast.stats.CommGBps <= 0 {
		t.Fatalf("aggregate CommGBps not populated: %v %v", slice.stats.CommGBps, bcast.stats.CommGBps)
	}
}

// The infinity FullParams consolidation must draw its gather scratch from
// the engine arena (checkpoint-gather satellite): a warm call allocates
// only the returned vectors and map.
func TestInfinityFullParamsGatherScratchPooled(t *testing.T) {
	mcfg := testModelCfg(false)
	comm.Run(1, func(c *comm.Comm) {
		g := model.MustGPT(mcfg)
		e, err := NewInfinityEngine(Config{LossScale: 64, Seed: 3}, c, g)
		if err != nil {
			t.Error(err)
			return
		}
		defer e.Close()
		e.FullParams() // warm the arena size classes
		nparams := len(module.AllParams(g))
		allocs := testing.AllocsPerRun(10, func() {
			e.FullParams()
		})
		budget := float64(2*nparams + 4)
		if allocs > budget {
			t.Errorf("FullParams allocated %.1f/call for %d params (budget %.0f): gather scratch not pooled",
				allocs, nparams, budget)
		}
	})
}
