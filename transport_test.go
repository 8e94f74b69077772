// Cross-transport trajectory equivalence: the tentpole contract of the
// pluggable-transport redesign. A world of worker "processes" (goroutines
// here, each owning its own socket transport over loopback TCP — the same
// code path zinf-launch exercises with real processes) must train
// bit-identically to the in-memory goroutine world: byte-equal loss
// trajectories and byte-equal final weights, for DDP, ZeRO-3 under both
// partitioning strategies, and ZeRO-Infinity with overlap and prefetch.
package zeroinf_test

import (
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	zeroinf "repro"
)

// rankOutcome is one rank's full observable trajectory.
type rankOutcome struct {
	losses  []float64
	weights map[string][]float32
	err     error
}

// trainRank trains one rank with the library building blocks over accum
// micro-batches per step, mirroring zeroinf.Train's batch seeding, and
// returns everything observable: per-step global losses and the gathered
// final fp16 weights.
func trainRank(c *zeroinf.Comm, mcfg zeroinf.ModelConfig, ecfg zeroinf.EngineConfig, steps, accum, batch int, dataSeed uint64) rankOutcome {
	g, err := zeroinf.NewModel(mcfg)
	if err != nil {
		return rankOutcome{err: err}
	}
	e, err := zeroinf.NewEngine(ecfg, c, g)
	if err != nil {
		return rankOutcome{err: err}
	}
	defer e.Close()
	var out rankOutcome
	tok, tgt := make([][]int, accum), make([][]int, accum)
	for s := 0; s < steps; s++ {
		for m := range accum {
			seed := dataSeed + uint64(s*1000+m*100000+c.Rank())
			tok[m], tgt[m] = zeroinf.SyntheticBatch(seed, mcfg, batch)
		}
		sr, err := e.StepAccum(tok, tgt, batch)
		if err != nil {
			return rankOutcome{err: fmt.Errorf("rank %d step %d: %w", c.Rank(), s, err)}
		}
		out.losses = append(out.losses, sr.Loss)
	}
	out.weights = e.FullParams()
	return out
}

// runMem trains a world over the in-memory transport.
func runMem(t *testing.T, ranks int, mcfg zeroinf.ModelConfig, ecfg zeroinf.EngineConfig, steps, accum, batch int) []rankOutcome {
	t.Helper()
	w, err := zeroinf.NewWorld(zeroinf.WorldOptions{Size: ranks, Topology: ecfg.Topology})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]rankOutcome, ranks)
	w.Run(func(c *zeroinf.Comm) {
		out[c.Rank()] = trainRank(c, mcfg, ecfg, steps, accum, batch, 1)
	})
	return out
}

// openSockWorlds bootstraps one socket transport per rank over loopback TCP
// and builds each rank its own World from opts (Size and Transport filled
// in) — exactly as a zinf-launch worker process does. The worlds are closed
// when the test ends.
func openSockWorlds(t *testing.T, ranks int, opts zeroinf.WorldOptions) []*zeroinf.World {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("reserving port: %v", err)
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
			o := opts
			o.Size, o.Transport = ranks, tr
			if worlds[rank], errs[rank] = zeroinf.NewWorld(o); errs[rank] != nil {
				tr.Close()
			}
		}(r)
	}
	wg.Wait()
	t.Cleanup(func() {
		for _, w := range worlds {
			if w != nil {
				w.Close()
			}
		}
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("sock rank %d: %v", r, err)
		}
	}
	return worlds
}

// runWorlds runs fn on every rank the worlds host, each on its own goroutine.
func runWorlds(worlds []*zeroinf.World, fn func(c *zeroinf.Comm)) {
	var wg sync.WaitGroup
	for _, w := range worlds {
		wg.Add(1)
		go func(w *zeroinf.World) {
			defer wg.Done()
			w.Run(fn)
		}(w)
	}
	wg.Wait()
}

// runSock trains the same world with one socket transport per rank.
func runSock(t *testing.T, ranks int, mcfg zeroinf.ModelConfig, ecfg zeroinf.EngineConfig, steps, accum, batch int) []rankOutcome {
	t.Helper()
	be, err := zeroinf.BackendByName(ecfg.Backend)
	if err != nil {
		t.Fatal(err)
	}
	worlds := openSockWorlds(t, ranks, zeroinf.WorldOptions{Topology: ecfg.Topology, CodecBackend: be})
	out := make([]rankOutcome, ranks)
	runWorlds(worlds, func(c *zeroinf.Comm) {
		out[c.Rank()] = trainRank(c, mcfg, ecfg, steps, accum, batch, 1)
	})
	return out
}

// assertIdentical demands byte-equal losses and final weights across two
// worlds' outcomes, rank by rank.
func assertIdentical(t *testing.T, mem, sock []rankOutcome) {
	t.Helper()
	for r := range mem {
		if mem[r].err != nil {
			t.Fatalf("mem rank %d: %v", r, mem[r].err)
		}
		if sock[r].err != nil {
			t.Fatalf("sock rank %d: %v", r, sock[r].err)
		}
		if len(mem[r].losses) != len(sock[r].losses) {
			t.Fatalf("rank %d: %d vs %d losses", r, len(mem[r].losses), len(sock[r].losses))
		}
		for s := range mem[r].losses {
			if math.Float64bits(mem[r].losses[s]) != math.Float64bits(sock[r].losses[s]) {
				t.Fatalf("rank %d step %d: loss diverged: mem %.17g sock %.17g",
					r, s, mem[r].losses[s], sock[r].losses[s])
			}
		}
		if len(mem[r].weights) != len(sock[r].weights) {
			t.Fatalf("rank %d: weight map sizes differ: %d vs %d", r, len(mem[r].weights), len(sock[r].weights))
		}
		for name, mw := range mem[r].weights {
			sw, ok := sock[r].weights[name]
			if !ok {
				t.Fatalf("rank %d: weight %q missing from sock world", r, name)
			}
			if len(mw) != len(sw) {
				t.Fatalf("rank %d: weight %q length differs", r, name)
			}
			for i := range mw {
				if math.Float32bits(mw[i]) != math.Float32bits(sw[i]) {
					t.Fatalf("rank %d: weight %q[%d] diverged: mem %x sock %x",
						r, name, i, math.Float32bits(mw[i]), math.Float32bits(sw[i]))
				}
			}
		}
	}
}

// TestSockTransportTrainsBitIdentical: a 4-rank socket world trains
// bit-identically to the in-memory world for DDP, ZeRO-1, ZeRO-2 with async
// reduce-scatters (also accumulating two micro-batches, each launching more
// reductions than the engine keeps in flight), ZeRO-3 (both partitioning
// strategies), and ZeRO-Infinity with overlap and prefetch.
func TestSockTransportTrainsBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-world training in -short mode")
	}
	mcfg := zeroinf.ModelConfig{Vocab: 32, Hidden: 32, Heads: 4, Seq: 8, Layers: 2}
	base := zeroinf.EngineConfig{LossScale: 1024, DynamicLossScale: true, Seed: 7}
	for _, tc := range []struct {
		name  string
		mut   func(*zeroinf.EngineConfig)
		accum int // micro-batches per step
	}{
		{"ddp", func(c *zeroinf.EngineConfig) { c.Stage = zeroinf.StageDDP }, 1},
		{"ddp-overlap-accum2", func(c *zeroinf.EngineConfig) {
			c.Stage = zeroinf.StageDDP
			c.Overlap = true
		}, 2},
		{"zero1", func(c *zeroinf.EngineConfig) { c.Stage = zeroinf.Stage1 }, 1},
		{"zero2-overlap", func(c *zeroinf.EngineConfig) {
			c.Stage = zeroinf.Stage2
			c.Overlap = true
		}, 1},
		{"zero2-overlap-accum2", func(c *zeroinf.EngineConfig) {
			c.Stage = zeroinf.Stage2
			c.Overlap = true
		}, 2},
		{"z3-slice-overlap", func(c *zeroinf.EngineConfig) {
			c.Stage = zeroinf.Stage3
			c.Overlap = true
			c.PrefetchDepth = 2
		}, 1},
		{"z3-broadcast", func(c *zeroinf.EngineConfig) {
			c.Stage = zeroinf.Stage3
			c.Partition = zeroinf.PartitionBroadcast
		}, 1},
		{"infinity-overlap-prefetch", func(c *zeroinf.EngineConfig) {
			c.Infinity = true
			c.Params = zeroinf.OnCPU
			c.Optimizer = zeroinf.OnCPU
			c.Overlap = true
			c.PrefetchDepth = 2
		}, 1},
		{"z3-hier-topology", func(c *zeroinf.EngineConfig) {
			c.Stage = zeroinf.Stage3
			c.Overlap = true
			c.PrefetchDepth = 2
			c.Topology = &zeroinf.Topology{Nodes: 2, NodeSize: 2}
		}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ecfg := base
			tc.mut(&ecfg)
			mem := runMem(t, 4, mcfg, ecfg, 4, tc.accum, 2)
			sock := runSock(t, 4, mcfg, ecfg, 4, tc.accum, 2)
			assertIdentical(t, mem, sock)
		})
	}
}

// TestTrainWorkerModeMatchesSPMD checks the zeroinf.Train worker-mode entry
// point (TrainOptions.Comm) against the classic SPMD path on a shared
// in-memory world: same losses, every rank reporting.
func TestTrainWorkerModeMatchesSPMD(t *testing.T) {
	mcfg := zeroinf.ModelConfig{Vocab: 32, Hidden: 32, Heads: 4, Seq: 8, Layers: 1}
	ecfg := zeroinf.EngineConfig{Stage: zeroinf.Stage3, LossScale: 1024, DynamicLossScale: true, Seed: 7}
	ref, err := zeroinf.Train(zeroinf.TrainOptions{
		Model: mcfg, Engine: ecfg, Ranks: 2, Steps: 3, BatchPerRank: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := zeroinf.NewWorld(zeroinf.WorldOptions{Size: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	results := make([]zeroinf.TrainResult, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			results[rank], errs[rank] = zeroinf.Train(zeroinf.TrainOptions{
				Model: mcfg, Engine: ecfg, Comm: w.Comm(rank), Steps: 3, BatchPerRank: 2,
			})
		}(r)
	}
	wg.Wait()
	for r := 0; r < 2; r++ {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		if len(results[r].Losses) != len(ref.Losses) {
			t.Fatalf("rank %d: %d losses, SPMD had %d", r, len(results[r].Losses), len(ref.Losses))
		}
		for s := range ref.Losses {
			if math.Float64bits(results[r].Losses[s]) != math.Float64bits(ref.Losses[s]) {
				t.Fatalf("rank %d step %d: worker-mode loss %.17g != SPMD %.17g",
					r, s, results[r].Losses[s], ref.Losses[s])
			}
		}
	}
	// Worker mode refuses checkpointing and world-size disagreement.
	if _, err := zeroinf.Train(zeroinf.TrainOptions{
		Model: mcfg, Engine: zeroinf.EngineConfig{CheckpointDir: t.TempDir(), CheckpointEvery: 1},
		Comm: w.Comm(0), Steps: 1, BatchPerRank: 1,
	}); err == nil {
		t.Error("worker mode accepted checkpointing")
	}
	if _, err := zeroinf.Train(zeroinf.TrainOptions{
		Model: mcfg, Engine: ecfg, Comm: w.Comm(0), Ranks: 3, Steps: 1, BatchPerRank: 1,
	}); err == nil {
		t.Error("worker mode accepted mismatched Ranks")
	}
}

// TestNewEngineChecksTopologyAgainstWorld: the fabric is the world's. An
// engine recipe that restates a topology must agree with the world the
// communicator belongs to — on either transport — and one that names none
// accepts the world's.
func TestNewEngineChecksTopologyAgainstWorld(t *testing.T) {
	mcfg := zeroinf.ModelConfig{Vocab: 32, Hidden: 32, Heads: 4, Seq: 8, Layers: 1}
	twoByOne := &zeroinf.Topology{NodeSize: 1}
	oneByTwo := &zeroinf.Topology{NodeSize: 2}
	for _, tc := range []struct {
		name          string
		world, engine *zeroinf.Topology
		want          string // substring of the error; "" = the engine is built
	}{
		{"match", oneByTwo, &zeroinf.Topology{Nodes: 1, NodeSize: 2, IntraGBps: 100}, ""},
		{"mismatch", oneByTwo, twoByOne, "world has topology 1x2:intra=100:inter=12.5, engine configured 2x1:intra=100:inter=12.5"},
		{"engine-names-none", oneByTwo, nil, ""},
		{"world-is-flat", nil, oneByTwo, "world has topology flat, engine configured 1x2:intra=100:inter=12.5"},
	} {
		for _, transport := range []string{"mem", "sock"} {
			t.Run(tc.name+"/"+transport, func(t *testing.T) {
				var worlds []*zeroinf.World
				if transport == "sock" {
					worlds = openSockWorlds(t, 2, zeroinf.WorldOptions{Topology: tc.world})
				} else {
					w, err := zeroinf.NewWorld(zeroinf.WorldOptions{Size: 2, Topology: tc.world})
					if err != nil {
						t.Fatal(err)
					}
					worlds = []*zeroinf.World{w}
				}
				errs := make([]error, 2)
				runWorlds(worlds, func(c *zeroinf.Comm) {
					g, err := zeroinf.NewModel(mcfg)
					if err != nil {
						errs[c.Rank()] = err
						return
					}
					e, err := zeroinf.NewEngine(zeroinf.EngineConfig{Stage: zeroinf.Stage3, Topology: tc.engine}, c, g)
					if err == nil {
						e.Close()
					}
					errs[c.Rank()] = err
				})
				for r, err := range errs {
					switch {
					case tc.want == "" && err != nil:
						t.Errorf("rank %d: %v", r, err)
					case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
						t.Errorf("rank %d: error %v, want one containing %q", r, err, tc.want)
					}
				}
			})
		}
	}
}
