package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	zeroinf "repro"
)

// geometry is the per-rank batch shape of a workload and the number of
// timed steps a fixed-step run takes.
type geometry struct {
	Seq, Batch, Steps int
}

// scale fixes everything a run needs besides the workload: the model, the
// world size and the step counts. fullScale is the benchmark; toyScale is
// the same five shapes small enough for `go test`.
type scale struct {
	Model       zeroinf.ModelConfig // Seq comes from the geometry
	Ranks       int
	Warmup      int
	Dense, Thin geometry
	TracedSteps int
	// MinSteps is the fewest timed steps a time-bounded run takes: 40 is
	// the smallest count at which p75 has ten samples beyond it.
	MinSteps int
	// Setups is how many times set-up (build + warm-up) is run; setup_s is
	// their median.
	Setups int
	// Golden says golden_losses.json was recorded at this scale.
	Golden bool
	// ProbeElems is the probe message length in elements (the largest
	// parameter) and ProbeIters the number of timed calls per probe.
	ProbeElems, ProbeIters int
}

var fullScale = scale{
	// m256: ~3.3 M parameters, largest 256x1024 (512 KiB in fp16).
	Model: zeroinf.ModelConfig{Vocab: 512, Hidden: 256, Heads: 4, Layers: 4},
	Ranks: 4, Warmup: 3,
	Dense:       geometry{Seq: 32, Batch: 1, Steps: 40},
	Thin:        geometry{Seq: 8, Batch: 1, Steps: 60},
	TracedSteps: 20,
	MinSteps:    40,
	Setups:      3,
	Golden:      true,
	ProbeElems:  256 * 1024, ProbeIters: 30,
}

var toyScale = scale{
	Model: zeroinf.ModelConfig{Vocab: 32, Hidden: 32, Heads: 4, Layers: 2},
	Ranks: 2, Warmup: 1,
	Dense:       geometry{Seq: 16, Batch: 2, Steps: 3},
	Thin:        geometry{Seq: 8, Batch: 1, Steps: 3},
	TracedSteps: 3,
	MinSteps:    1,
	Setups:      1,
	ProbeElems:  32 * 128, ProbeIters: 2,
}

// workload is one row of the benchmark. Every later issue refers to these
// names; Why is the reason the row exists (also in BENCHMARK.json).
type workload struct {
	Name   string
	Engine string // "z3", "inf" or "ddp"
	Sock   bool   // one socket transport per rank over loopback TCP
	Dense  bool
	Why    string
}

var workloads = []workload{
	{"z3_mem_dense", "z3", false, true,
		"ZeRO-3 over the in-memory transport at 32 tokens/rank: token-proportional work (MatMul, model fwd/bwd) dominates; kernel changes show here, comm/NVMe/optimizer changes must not"},
	{"z3_mem_thin", "z3", false, false,
		"ZeRO-3 over the in-memory transport at 8 tokens/rank: parameter-proportional work (gather, fp16 codec, reduce-scatter, sharded Adam, arenas) dominates; control for the sock and NVMe rows"},
	{"z3_sock_thin", "z3", true, false,
		"z3_mem_thin's engine over loopback TCP with the hub at rank 0: only the transport differs, so the hub relay and framing carry the difference"},
	{"inf_nvme_thin", "inf", false, false,
		"ZeRO-Infinity with parameters and optimizer state on a file-backed NVMe store: the only row where nvme and the pinned pool work, reading and writing in the same step"},
	{"ddp_mem_thin", "ddp", false, false,
		"plain data parallelism, the baseline: the same comm and optim layers as one fp16 all-reduce and full-size Adam instead of gather + reduce-scatter and shard-size Adam"},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) geometry(sc scale) geometry {
	if w.Dense {
		return sc.Dense
	}
	return sc.Thin
}

func (w workload) model(sc scale) zeroinf.ModelConfig {
	m := sc.Model
	m.Seq = w.geometry(sc).Seq
	return m
}

// engineConfig is the recipe shared by every row: reference backend, static
// loss scale 1024, engine seed 42. nvmeDir is used by the Infinity row only.
func (w workload) engineConfig(nvmeDir string) zeroinf.EngineConfig {
	cfg := zeroinf.EngineConfig{Backend: "reference", LossScale: 1024, Seed: 42}
	switch w.Engine {
	case "z3":
		cfg.Stage = zeroinf.Stage3
		cfg.Overlap = true
		cfg.PrefetchDepth = 2
	case "inf":
		cfg.Infinity = true
		cfg.Params = zeroinf.OnNVMe
		cfg.Optimizer = zeroinf.OnNVMe
		cfg.NVMeDir = nvmeDir
		cfg.Overlap = true
		cfg.PrefetchDepth = 2
	case "ddp":
		cfg.Stage = zeroinf.StageDDP
	}
	return cfg
}

// openWorld returns one communicator per rank and a function that closes
// the world(s) behind them. Over the socket transport every rank owns its
// own sealed world, exactly as a zinf-launch worker process does; the
// bootstrap blocks until the hub has every peer, so the ranks dial
// concurrently.
func openWorld(ranks int, sock bool) ([]*zeroinf.Comm, func(), error) {
	comms := make([]*zeroinf.Comm, ranks)
	if !sock {
		w, err := zeroinf.NewWorld(zeroinf.WorldOptions{Size: ranks})
		if err != nil {
			return nil, nil, err
		}
		for r := range comms {
			comms[r] = w.Comm(r)
		}
		return comms, func() { w.Close() }, nil
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, fmt.Errorf("reserving a loopback port: %w", err)
	}
	addr := l.Addr().String()
	l.Close()
	worlds := make([]*zeroinf.World, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			tr, err := zeroinf.NewSockTransport(zeroinf.SockConfig{
				Rank: rank, Size: ranks, Coord: addr, DialTimeout: 20 * time.Second,
			})
			if err != nil {
				errs[rank] = err
				return
			}
			w, err := zeroinf.NewWorld(zeroinf.WorldOptions{Size: ranks, Transport: tr})
			if err != nil {
				tr.Close()
				errs[rank] = err
				return
			}
			worlds[rank] = w
			comms[rank] = w.Comm(rank)
		}(r)
	}
	wg.Wait()
	closeAll := func() {
		for _, w := range worlds {
			if w != nil {
				w.Close()
			}
		}
	}
	for r, err := range errs {
		if err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("sock world rank %d: %w", r, err)
		}
	}
	return comms, closeAll, nil
}
