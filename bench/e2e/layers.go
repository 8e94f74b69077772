package main

import (
	"fmt"
	"strings"

	zeroinf "repro"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/module"
	"repro/internal/zero"
)

// counters is the engine-side state the traced pass reads on rank 0 after
// every step. All but Allocs (the last step's count) are cumulative.
type counters struct {
	Gathers, OnDemand, PrefetchIssued, PrefetchHits, AsyncReduces int
	NVMeRead, NVMeWritten, PinnedBytes, PinnedAcquires, MaxLive   int64
	Allocs                                                        uint64
}

// tracedEngine builds the workload's engine through the internal
// constructors so the two decorators can be installed: the same mapping
// zeroinf.NewEngine applies to w.engineConfig, with the backend and model
// wrapped. rec is nil on the ranks that do not record; they run the same
// decorators, so every rank does the same work.
func tracedEngine(w workload, sc scale, c *zeroinf.Comm, nvmeDir string, rec *recorder) (rankEngine, error) {
	gpt, err := model.NewGPT(w.model(sc))
	if err != nil {
		return rankEngine{}, err
	}
	g := tracedModel{GPT: gpt, rec: rec}
	be := newTracedBackend(rec)
	cfg := w.engineConfig(nvmeDir)
	zc := zero.Config{
		Stage: cfg.Stage, LossScale: cfg.LossScale, Seed: cfg.Seed,
		PrefetchDepth: cfg.PrefetchDepth, Overlap: cfg.Overlap, Backend: be,
	}
	switch w.Engine {
	case "z3":
		e, err := zero.NewZ3Engine(zc, c, g)
		if err != nil {
			return rankEngine{}, err
		}
		return rankEngine{
			step: func(tok, tgt []int, batch int) (zeroinf.StepResult, error) {
				return e.Step(tok, tgt, batch), nil
			},
			counters: func() counters {
				return counters{
					Gathers: e.Gathers, OnDemand: e.OnDemandGathers,
					PrefetchIssued: e.PrefetchIssued, PrefetchHits: e.PrefetchHits,
					AsyncReduces: e.AsyncReduces, MaxLive: e.MaxLiveParamBytes(),
					Allocs: e.AllocsPerStep,
				}
			},
			close: func() {},
		}, nil
	case "ddp":
		e, err := zero.NewDPEngine(zc, c, g)
		if err != nil {
			return rankEngine{}, err
		}
		// Every parameter is live for the whole step.
		allLive := module.NumParams(g) * 2
		return rankEngine{
			step: func(tok, tgt []int, batch int) (zeroinf.StepResult, error) {
				return e.Step(tok, tgt, batch), nil
			},
			counters: func() counters { return counters{MaxLive: allLive, Allocs: e.AllocsPerStep} },
			close:    func() {},
		}, nil
	case "inf":
		e, err := core.NewInfinityEngine(core.Config{
			Params: cfg.Params, Optimizer: cfg.Optimizer, NVMeDir: cfg.NVMeDir,
			PrefetchDepth: cfg.PrefetchDepth, Overlap: cfg.Overlap,
			LossScale: cfg.LossScale, Seed: cfg.Seed, Backend: be,
		}, c, g)
		if err != nil {
			return rankEngine{}, err
		}
		return rankEngine{
			step: e.Step,
			counters: func() counters {
				s := e.Stats()
				return counters{
					Gathers: s.Gathers, OnDemand: s.OnDemandGathers,
					PrefetchIssued: s.PrefetchIssued + s.CommPrefetchIssued,
					PrefetchHits:   s.PrefetchHits + s.CommPrefetchHits,
					AsyncReduces:   s.AsyncReduces,
					NVMeRead:       s.NVMeBytesRead, NVMeWritten: s.NVMeBytesWritten,
					PinnedBytes: s.PinnedBytes, PinnedAcquires: s.PinnedAcquires,
					MaxLive: s.MaxLiveParamBytes, Allocs: s.AllocsPerStep,
				}
			},
			close: e.Close,
		}, nil
	}
	return rankEngine{}, fmt.Errorf("unknown engine %q", w.Engine)
}

// trafficDelta returns after - before per collective kind.
func trafficDelta(before, after map[string]zeroinf.CommTraffic) map[string]zeroinf.CommTraffic {
	out := make(map[string]zeroinf.CommTraffic, len(after))
	for k, a := range after {
		b := before[k]
		out[k] = zeroinf.CommTraffic{
			Ops:            a.Ops - b.Ops,
			MeasIntraBytes: a.MeasIntraBytes - b.MeasIntraBytes,
			MeasInterBytes: a.MeasInterBytes - b.MeasInterBytes,
			MeasSeconds:    a.MeasSeconds - b.MeasSeconds,
		}
	}
	return out
}

// commFamily maps a collective kind to the family its time is reported
// under ("" = totals only). reducehalfdecode is the owner-rank form of the
// gradient reduce-scatter; the scalar all-reduces (loss, overflow and clip
// consensus) count with allreduce.
func commFamily(kind string) string {
	switch {
	case strings.HasPrefix(kind, "allgather"):
		return "allgather"
	case strings.HasPrefix(kind, "reducescatter"), kind == "reducehalfdecode":
		return "reducescatter"
	case strings.HasPrefix(kind, "allreduce"):
		return "allreduce"
	}
	return ""
}

// layerMetrics turns one traced pass into the per-layer metrics that come
// from spans and counters. Time metrics are per-step medians over the timed
// steps; counts are the timed window's total over its steps.
func layerMetrics(sc scale, res passResult, spans []span, untracedP50Ms float64) map[string]float64 {
	steps := analyze(spans)[sc.Warmup:]
	perStep := func(f func(stepBreakdown) int64) float64 { // median over the timed steps
		v := make([]float64, len(steps))
		for i, s := range steps {
			v[i] = float64(f(s))
		}
		return median(v)
	}
	ms := func(f func(stepBreakdown) int64) float64 { return perStep(f) / 1e6 }
	m := map[string]float64{
		"engine.step_ms":        ms(func(s stepBreakdown) int64 { return s.Step }),
		"model.fwd_ms":          ms(func(s stepBreakdown) int64 { return s.Fwd }),
		"model.bwd_ms":          ms(func(s stepBreakdown) int64 { return s.Bwd }),
		"tensor.matmul_ms":      ms(func(s stepBreakdown) int64 { return s.Class[classMatMul] }),
		"tensor.matmul_calls":   perStep(func(s stepBreakdown) int64 { return int64(s.MatMulCalls) }),
		"tensor.elementwise_ms": ms(func(s stepBreakdown) int64 { return s.Class[classElementwise] }),
		"tensor.parrange_ms": ms(func(s stepBreakdown) int64 {
			return s.Class[classParRange] - s.TailClass[classParRange]
		}),
		"tensor.reduce_ms":     ms(func(s stepBreakdown) int64 { return s.Class[classReduce] }),
		"tensor.codec_ms":      ms(func(s stepBreakdown) int64 { return s.Class[classCodec] }),
		"optim.adam_ms":        ms(func(s stepBreakdown) int64 { return s.TailClass[classParRange] }),
		"engine.fwd_wait_ms":   ms(func(s stepBreakdown) int64 { return s.FwdSelf }),
		"engine.bwd_wait_ms":   ms(func(s stepBreakdown) int64 { return s.BwdSelf }),
		"engine.tail_ms":       ms(stepBreakdown.Tail),
		"engine.tail_other_ms": ms(stepBreakdown.TailOther),
	}
	m["trace.overhead_pct"] = 100 * (m["engine.step_ms"] - untracedP50Ms) / untracedP50Ms
	m["overlap.exposed_wait_share"] = (m["engine.fwd_wait_ms"] + m["engine.bwd_wait_ms"]) / m["engine.step_ms"]

	n := float64(len(steps))
	last := res.Counters[len(res.Counters)-1]
	var base counters
	if sc.Warmup > 0 {
		base = res.Counters[sc.Warmup-1]
	}
	minAllocs := res.Counters[sc.Warmup].Allocs
	for _, c := range res.Counters[sc.Warmup:] {
		minAllocs = min(minAllocs, c.Allocs)
	}
	m["engine.gathers_per_step"] = float64(last.Gathers-base.Gathers) / n
	m["engine.ondemand_gathers_per_step"] = float64(last.OnDemand-base.OnDemand) / n
	m["engine.max_live_param_mb"] = float64(last.MaxLive) / (1 << 20)
	m["overlap.async_reduces_per_step"] = float64(last.AsyncReduces-base.AsyncReduces) / n
	m["overlap.prefetch_hit_ratio"] = 0
	if issued := last.PrefetchIssued - base.PrefetchIssued; issued > 0 {
		m["overlap.prefetch_hit_ratio"] = float64(last.PrefetchHits-base.PrefetchHits) / float64(issued)
	}
	m["nvme.read_mb_per_step"] = float64(last.NVMeRead-base.NVMeRead) / n / (1 << 20)
	m["nvme.write_mb_per_step"] = float64(last.NVMeWritten-base.NVMeWritten) / n / (1 << 20)
	m["mem.allocs_per_step"] = float64(minAllocs)
	m["mem.first_step_allocs"] = float64(res.Counters[0].Allocs)
	m["mem.pinned_mb"] = float64(last.PinnedBytes) / (1 << 20)
	m["mem.pinned_acquires_per_step"] = float64(last.PinnedAcquires-base.PinnedAcquires) / n

	var ops, bytes int64
	var busy float64
	family := map[string]float64{"allgather": 0, "reducescatter": 0, "allreduce": 0}
	for kind, t := range res.Traffic {
		ops += t.Ops
		bytes += t.MeasBytes()
		busy += t.MeasSeconds
		if f := commFamily(kind); f != "" {
			family[f] += t.MeasSeconds
		}
	}
	m["comm.ops_per_step"] = float64(ops) / n
	m["comm.bytes_per_step"] = float64(bytes) / n
	m["comm.busy_ms_per_step"] = busy * 1e3 / n
	for f, sec := range family {
		m["comm."+f+"_ms_per_step"] = sec * 1e3 / n
	}
	return m
}
