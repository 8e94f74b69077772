// Worker-mode and world-construction tests of the public API, and the
// loopback socket worlds they and TestConfigMatrix train on.
package zeroinf_test

import (
	"errors"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	zeroinf "repro"
)

// dialSockWorlds bootstraps one socket transport per rank over loopback TCP
// and builds each rank its own World from opts (Size and Transport filled
// in) — exactly as a zinf-launch worker process does. On error every world
// and transport it opened is closed again.
func dialSockWorlds(ranks int, opts zeroinf.WorldOptions) ([]*zeroinf.World, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
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
	if err := errors.Join(errs...); err != nil {
		closeWorlds(worlds)
		return nil, err
	}
	return worlds, nil
}

// closeWorlds closes every non-nil world.
func closeWorlds(worlds []*zeroinf.World) {
	for _, w := range worlds {
		if w != nil {
			w.Close()
		}
	}
}

// openSockWorlds is dialSockWorlds for a test that needs the worlds: they
// are closed when the test ends.
func openSockWorlds(t *testing.T, ranks int, opts zeroinf.WorldOptions) []*zeroinf.World {
	t.Helper()
	worlds, err := dialSockWorlds(ranks, opts)
	if err != nil {
		t.Fatalf("sock worlds: %v", err)
	}
	t.Cleanup(func() { closeWorlds(worlds) })
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
