package zero

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/comm"
	"repro/internal/model"
)

// stateEngine is the surface the rank-state tests drive.
type stateEngine interface {
	Step(tokens, targets []int, batch int) StepResult
	SaveRankState(io.Writer) error
	LoadRankState(io.Reader) error
}

// stateStages are the rank-state tests' rows: partitioned parameters, and
// replicated ones with the optimizer state whole and partitioned.
var stateStages = []Stage{Stage3, StageDDP, Stage2}

// newStateEngine builds the resident engine that runs stage.
func newStateEngine(stage Stage, cfg Config, c *comm.Comm, g Model) (stateEngine, error) {
	cfg.Stage = stage
	return newResidentEngine(cfg, c, g)
}

// fuzzState trains a 1-rank engine a step and serializes its rank state —
// the valid corpus seed the fuzzer mutates from.
func fuzzState(t testing.TB, stage Stage) []byte {
	var buf bytes.Buffer
	comm.Run(1, func(c *comm.Comm) {
		e, err := newStateEngine(stage, Config{LossScale: 64, DynamicLossScale: true, Seed: 3}, c, model.MustGPT(testCfg()))
		if err != nil {
			t.Error(err)
			return
		}
		tokens, targets := makeBatches(testCfg(), 1, 1, testBatch)
		e.Step(tokens[0][0], targets[0][0], testBatch)
		if err := e.SaveRankState(&buf); err != nil {
			t.Error(err)
		}
	})
	return buf.Bytes()
}

// TestRankStateTruncation chops a valid rank-state file at every byte
// boundary — magic, header fields, record headers, each vector — and
// requires every strict prefix to fail with a descriptive error, never a
// panic, and the full file to load. The check is quadratic in the file
// size, so the rows run in parallel.
func TestRankStateTruncation(t *testing.T) {
	for _, stage := range stateStages {
		t.Run(stage.String(), func(t *testing.T) {
			t.Parallel()
			enc := fuzzState(t, stage)
			comm.Run(1, func(c *comm.Comm) {
				e, err := newStateEngine(stage, Config{LossScale: 64, DynamicLossScale: true, Seed: 3}, c, model.MustGPT(testCfg()))
				if err != nil {
					t.Error(err)
					return
				}
				for n := 0; n < len(enc); n++ {
					if err := e.LoadRankState(bytes.NewReader(enc[:n])); err == nil {
						t.Errorf("truncation to %d/%d bytes was accepted", n, len(enc))
						return
					}
				}
				if err := e.LoadRankState(bytes.NewReader(enc)); err != nil {
					t.Errorf("full state rejected: %v", err)
				}
			})
		})
	}
}

// FuzzLoadRankState: arbitrary bytes fed to LoadRankState on every engine
// body must never panic — only error or load successfully (in which case the
// engine must still be able to save a state of its own).
func FuzzLoadRankState(f *testing.F) {
	f.Add(fuzzState(f, Stage3))
	f.Add([]byte("ZST2"))
	f.Add([]byte("ZST1"))
	f.Add([]byte{})
	f.Add(fuzzState(f, StageDDP))
	f.Add(fuzzState(f, Stage2))
	f.Fuzz(func(t *testing.T, data []byte) {
		comm.Run(1, func(c *comm.Comm) {
			for _, stage := range stateStages {
				e, err := newStateEngine(stage, Config{LossScale: 64, DynamicLossScale: true, Seed: 3}, c, model.MustGPT(testCfg()))
				if err != nil {
					t.Error(err)
					return
				}
				if err := e.LoadRankState(bytes.NewReader(data)); err != nil {
					continue
				}
				var out bytes.Buffer
				if err := e.SaveRankState(&out); err != nil {
					t.Errorf("%s: save after accepted load failed: %v", stage, err)
				}
			}
		})
	})
}
