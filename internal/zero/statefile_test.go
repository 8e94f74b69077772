package zero

import (
	"bytes"
	"encoding/binary"
	"strings"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/model"
)

// Exact resume: training N steps straight equals training k, saving each
// rank's state, loading into fresh engines, and training N-k more — bit for
// bit, including optimizer moments and loss-scaler state.
func TestRankStateExactResume(t *testing.T) {
	mcfg := testCfg()
	const total, split = 6, 3
	tokens, targets := makeBatches(mcfg, total, testRanks, testBatch)
	cfg := Config{LossScale: 1024, DynamicLossScale: true, Seed: 13}

	// Continuous run.
	var contLosses []float64
	var contParams map[string][]float32
	var mu sync.Mutex
	comm.Run(testRanks, func(c *comm.Comm) {
		g := model.MustGPT(mcfg)
		e, _ := NewZ3Engine(cfg, c, g)
		var local []float64
		for s := 0; s < total; s++ {
			local = append(local, e.Step(tokens[s][c.Rank()], targets[s][c.Rank()], testBatch).Loss)
		}
		p := e.FullParams()
		if c.Rank() == 0 {
			mu.Lock()
			contLosses, contParams = local, p
			mu.Unlock()
		}
	})

	// Split run with save/restore in the middle.
	states := make([]bytes.Buffer, testRanks)
	comm.Run(testRanks, func(c *comm.Comm) {
		g := model.MustGPT(mcfg)
		e, _ := NewZ3Engine(cfg, c, g)
		for s := 0; s < split; s++ {
			e.Step(tokens[s][c.Rank()], targets[s][c.Rank()], testBatch)
		}
		if err := e.SaveRankState(&states[c.Rank()]); err != nil {
			t.Errorf("rank %d save: %v", c.Rank(), err)
		}
	})
	var resLosses []float64
	var resParams map[string][]float32
	comm.Run(testRanks, func(c *comm.Comm) {
		g := model.MustGPT(mcfg)
		e, _ := NewZ3Engine(cfg, c, g)
		if err := e.LoadRankState(bytes.NewReader(states[c.Rank()].Bytes())); err != nil {
			t.Errorf("rank %d load: %v", c.Rank(), err)
			return
		}
		var local []float64
		for s := split; s < total; s++ {
			local = append(local, e.Step(tokens[s][c.Rank()], targets[s][c.Rank()], testBatch).Loss)
		}
		p := e.FullParams()
		if c.Rank() == 0 {
			mu.Lock()
			resLosses, resParams = local, p
			mu.Unlock()
		}
	})

	for i, want := range contLosses[split:] {
		if resLosses[i] != want {
			t.Fatalf("resumed loss diverged at step %d: %.17g vs %.17g", split+i, resLosses[i], want)
		}
	}
	for name, want := range contParams {
		got := resParams[name]
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("resumed param %s[%d] = %g, want %g", name, i, got[i], want[i])
			}
		}
	}
}

func TestRankStateRejectsWrongRank(t *testing.T) {
	mcfg := testCfg()
	for _, stage := range stateStages {
		t.Run(stage.String(), func(t *testing.T) {
			states := make([]bytes.Buffer, 2)
			comm.Run(2, func(c *comm.Comm) {
				e, err := newStateEngine(stage, Config{LossScale: 8, Seed: 1}, c, model.MustGPT(mcfg))
				if err == nil {
					err = e.SaveRankState(&states[c.Rank()])
				}
				if err != nil {
					t.Error(err)
				}
			})
			comm.Run(2, func(c *comm.Comm) {
				e, err := newStateEngine(stage, Config{LossScale: 8, Seed: 1}, c, model.MustGPT(mcfg))
				if err != nil {
					t.Error(err)
					return
				}
				other := (c.Rank() + 1) % 2
				if err := e.LoadRankState(bytes.NewReader(states[other].Bytes())); err == nil {
					t.Error("cross-rank state load accepted")
				}
			})
		})
	}
}

// TestRankStateRejectsGarbage feeds each engine body files that must be
// refused with a descriptive error: garbage, a pre-goodSteps "ZST1" file,
// and a file whose record count is right but which repeats one parameter's
// record in place of another's.
func TestRankStateRejectsGarbage(t *testing.T) {
	for _, stage := range stateStages {
		t.Run(stage.String(), func(t *testing.T) {
			enc := fuzzState(t, stage)
			// v1 had no goodSteps field (header bytes 28..32).
			v1 := append(append([]byte("ZST1"), enc[4:28]...), enc[32:]...)
			rows := []struct {
				name, want string
				data       []byte
			}{
				{"garbage", "bad state magic", []byte("XXXXxxxx")},
				{"v1", `bad state magic "ZST1"`, v1},
				{"repeated-record", `"embed.tok" appears twice`, repeatRecord(t, enc, "embed.tok", "embed.pos")},
			}
			comm.Run(1, func(c *comm.Comm) {
				for _, row := range rows {
					e, err := newStateEngine(stage, Config{LossScale: 64, DynamicLossScale: true, Seed: 3}, c, model.MustGPT(testCfg()))
					if err != nil {
						t.Error(err)
						return
					}
					err = e.LoadRankState(bytes.NewReader(row.data))
					if err == nil || !strings.Contains(err.Error(), row.want) {
						t.Errorf("%s: err = %v, want it to contain %s", row.name, err, row.want)
					}
				}
			})
		})
	}
}

// repeatRecord returns the rank-state file enc with parameter dup's record
// written a second time in place of parameter gone's: the record count is
// still right, one parameter appears twice and another not at all.
func repeatRecord(t *testing.T, enc []byte, dup, gone string) []byte {
	t.Helper()
	const headerLen = 40 // magic, rank, world, step, scale, goodSteps, skipped, count
	recs := make(map[string][]byte)
	var order []string
	for rest := enc[headerLen:]; len(rest) > 0; {
		nameLen := int(binary.LittleEndian.Uint32(rest))
		name := string(rest[4 : 4+nameLen])
		n := 4 + nameLen + 8 + 12*int(binary.LittleEndian.Uint64(rest[4+nameLen:]))
		recs[name], order = rest[:n], append(order, name)
		rest = rest[n:]
	}
	if recs[dup] == nil || recs[gone] == nil {
		t.Fatalf("state has no record for %q or %q", dup, gone)
	}
	out := append([]byte(nil), enc[:headerLen]...)
	for _, name := range order {
		if name == gone {
			name = dup
		}
		out = append(out, recs[name]...)
	}
	return out
}
