package core

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/zero"
)

// stateEngine is the slice of an engine the cross-tier resume test drives.
type stateEngine struct {
	step  func(tok, tgt []int) float64
	save  func(io.Writer) error
	load  func(io.Reader) error
	full  func() map[string][]float32
	close func()
}

// There is one rank-state codec, so a file names no tier and no engine
// body: state written by ZeRO-3 resumes on ZeRO-Infinity and back — resident
// shards or NVMe regions streamed raw — and on the replicated ZeRO-2 stage,
// whose files are ZeRO-3's byte for byte, and training continues
// bit-identically to the run that was never interrupted.
func TestRankStateCrossesTiers(t *testing.T) {
	mcfg := testModelCfg(false)
	const total, split = 6, 3
	tokens, targets := makeBatches(mcfg, total, testRanks, testBatch)

	engines := map[string]func(t *testing.T, c *comm.Comm) (stateEngine, error){
		"zero3": func(t *testing.T, c *comm.Comm) (stateEngine, error) {
			e, err := zero.NewZ3Engine(zero.Config{LossScale: 1024, DynamicLossScale: true, Seed: 13}, c, model.MustGPT(mcfg))
			if err != nil {
				return stateEngine{}, err
			}
			return stateEngine{
				step: func(tok, tgt []int) float64 { return e.Step(tok, tgt, testBatch).Loss },
				save: e.SaveRankState, load: e.LoadRankState, full: e.FullParams, close: func() {},
			}, nil
		},
		"zero2": func(t *testing.T, c *comm.Comm) (stateEngine, error) {
			e, err := zero.NewDPEngine(zero.Config{Stage: zero.Stage2, LossScale: 1024, DynamicLossScale: true, Seed: 13}, c, model.MustGPT(mcfg))
			if err != nil {
				return stateEngine{}, err
			}
			return stateEngine{
				step: func(tok, tgt []int) float64 { return e.Step(tok, tgt, testBatch).Loss },
				save: e.SaveRankState, load: e.LoadRankState, full: e.FullParams, close: func() {},
			}, nil
		},
	}
	for name, place := range map[string]zero.Placement{"infinity-cpu": zero.OnCPU, "infinity-nvme": zero.OnNVMe} {
		engines[name] = func(t *testing.T, c *comm.Comm) (stateEngine, error) {
			e, err := NewInfinityEngine(Config{Params: place, Optimizer: place,
				LossScale: 1024, DynamicLossScale: true, Seed: 13}, c, model.MustGPT(mcfg))
			if err != nil {
				return stateEngine{}, err
			}
			return stateEngine{
				step: func(tok, tgt []int) float64 {
					res, err := e.Step(tok, tgt, testBatch)
					if err != nil {
						t.Error(err)
					}
					return res.Loss
				},
				save: e.SaveRankState, load: e.LoadRankState, full: e.FullParams, close: e.Close,
			}, nil
		}
	}

	// run trains steps [from, to) on engine, loading states first (if any)
	// and saving each rank's state afterwards.
	run := func(t *testing.T, engine string, from, to int, states []bytes.Buffer) (trajectory, []bytes.Buffer) {
		var out trajectory
		var mu sync.Mutex
		saved := make([]bytes.Buffer, testRanks)
		comm.Run(testRanks, func(c *comm.Comm) {
			e, err := engines[engine](t, c)
			if err != nil {
				t.Error(err)
				return
			}
			defer e.close()
			if states != nil {
				if err := e.load(bytes.NewReader(states[c.Rank()].Bytes())); err != nil {
					t.Errorf("%s rank %d load: %v", engine, c.Rank(), err)
					return
				}
			}
			var losses []float64
			for s := from; s < to; s++ {
				losses = append(losses, e.step(tokens[s][c.Rank()], targets[s][c.Rank()]))
			}
			if err := e.save(&saved[c.Rank()]); err != nil {
				t.Errorf("%s rank %d save: %v", engine, c.Rank(), err)
			}
			p := e.full()
			if c.Rank() == 0 {
				mu.Lock()
				out = trajectory{losses: losses, params: p}
				mu.Unlock()
			}
		})
		return out, saved
	}

	want, _ := run(t, "zero3", 0, total, nil)
	want.losses = want.losses[split:]
	for _, tc := range []struct{ writer, reader string }{
		{"zero3", "infinity-cpu"},
		{"infinity-cpu", "zero3"},
		{"zero3", "infinity-nvme"},
		{"infinity-nvme", "zero3"},
		{"zero2", "zero3"},
		{"zero3", "zero2"},
		{"zero2", "infinity-nvme"},
	} {
		t.Run(tc.writer+"→"+tc.reader, func(t *testing.T) {
			_, states := run(t, tc.writer, 0, split, nil)
			got, _ := run(t, tc.reader, split, total, states)
			assertSame(t, tc.writer+"→"+tc.reader, want, got)
		})
	}

	_, z2 := run(t, "zero2", 0, split, nil)
	_, z3 := run(t, "zero3", 0, split, nil)
	for r := range z3 {
		if !bytes.Equal(z2[r].Bytes(), z3[r].Bytes()) {
			t.Errorf("rank %d: zero2 state (%d B) differs from zero3 state (%d B)", r, z2[r].Len(), z3[r].Len())
		}
	}
}
