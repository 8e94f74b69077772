package zeroinf

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/nvme"
)

func resumeModel() ModelConfig {
	return ModelConfig{Vocab: 16, Hidden: 16, Heads: 2, Seq: 6, Layers: 2}
}

// finalWeights loads the consolidated fp16 weights from the newest complete
// generation in dir.
func finalWeights(t *testing.T, dir string) map[string][]float32 {
	t.Helper()
	set, err := ckpt.LatestComplete(dir)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := set.OpenWeights()
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	params, err := ReadCheckpoint(rc)
	if err != nil {
		t.Fatal(err)
	}
	return params
}

func assertSameWeights(t *testing.T, got, want map[string][]float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("param count mismatch: %d vs %d", len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Fatalf("missing param %q", name)
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("param %q diverged at elem %d: %g vs %g", name, i, g[i], w[i])
			}
		}
	}
}

func assertSameLosses(t *testing.T, got, want []float64, offset int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("loss count mismatch: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("loss diverged at step %d: %v vs %v", offset+i, got[i], want[i])
		}
	}
}

// TestKillResumeReplay is the deterministic kill/resume proof across the
// engine matrix: train 2k steps uninterrupted (snapshotting once at the
// end), then train k steps + resume for the remaining k from the snapshot,
// and require the resumed half's losses and the final consolidated weights
// to be bit-identical.
func TestKillResumeReplay(t *testing.T) {
	const k, ranks, batch = 3, 2, 2
	base := EngineConfig{LossScale: 128, DynamicLossScale: true, Seed: 5}
	cases := []struct {
		name string
		mut  func(*EngineConfig, *testing.T)
	}{
		{"ddp", func(e *EngineConfig, _ *testing.T) { e.Stage = StageDDP }},
		{"zero2", func(e *EngineConfig, _ *testing.T) { e.Stage = Stage2 }},
		{"zero3-slice-overlap", func(e *EngineConfig, _ *testing.T) {
			e.Stage = Stage3
			e.Overlap = true
			e.PrefetchDepth = 2
		}},
		{"zero3-broadcast-overlap", func(e *EngineConfig, _ *testing.T) {
			e.Stage = Stage3
			e.Overlap = true
			e.PrefetchDepth = 2
			e.Partition = PartitionBroadcast
		}},
		{"infinity-cpu", func(e *EngineConfig, _ *testing.T) {
			e.Infinity = true
			e.Params, e.Optimizer = OnCPU, OnCPU
			e.Overlap = true
			e.PrefetchDepth = 2
		}},
		{"infinity-nvme", func(e *EngineConfig, t *testing.T) {
			e.Infinity = true
			e.Params, e.Optimizer = OnNVMe, OnNVMe
			e.Overlap = true
			e.PrefetchDepth = 2
			e.NVMeDir = t.TempDir()
		}},
		{"infinity-nvme-broadcast", func(e *EngineConfig, t *testing.T) {
			e.Infinity = true
			e.Params, e.Optimizer = OnNVMe, OnNVMe
			e.Overlap = true
			e.PrefetchDepth = 2
			e.Partition = PartitionBroadcast
			e.NVMeDir = t.TempDir()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Uninterrupted baseline over 2k steps; one snapshot at the end
			// captures the reference final weights.
			ecfg := base
			tc.mut(&ecfg, t)
			ecfg.CheckpointDir = t.TempDir()
			ecfg.CheckpointEvery = 2 * k
			baseRes, err := Train(TrainOptions{
				Model: resumeModel(), Engine: ecfg, Ranks: ranks,
				Steps: 2 * k, BatchPerRank: batch,
			})
			if err != nil {
				t.Fatal(err)
			}
			if baseRes.CheckpointErr != nil {
				t.Fatal(baseRes.CheckpointErr)
			}
			wantW := finalWeights(t, ecfg.CheckpointDir)

			// Interrupted run: k steps, snapshot, fresh process resumes.
			icfg := base
			tc.mut(&icfg, t)
			icfg.CheckpointDir = t.TempDir()
			icfg.CheckpointEvery = k
			resA, err := Train(TrainOptions{
				Model: resumeModel(), Engine: icfg, Ranks: ranks,
				Steps: k, BatchPerRank: batch,
			})
			if err != nil {
				t.Fatal(err)
			}
			if resA.CheckpointErr != nil {
				t.Fatal(resA.CheckpointErr)
			}
			assertSameLosses(t, resA.Losses, baseRes.Losses[:k], 0)

			resB, err := Train(TrainOptions{
				Model: resumeModel(), Engine: icfg, Ranks: ranks,
				Steps: 2 * k, BatchPerRank: batch, Resume: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if resB.CheckpointErr != nil {
				t.Fatal(resB.CheckpointErr)
			}
			if resB.StartStep != k || resB.FinalStep != 2*k {
				t.Fatalf("resume ran steps %d..%d, want %d..%d",
					resB.StartStep, resB.FinalStep, k, 2*k)
			}
			assertSameLosses(t, resB.Losses, baseRes.Losses[k:], k)
			assertSameWeights(t, finalWeights(t, icfg.CheckpointDir), wantW)
		})
	}
}

// TestKillResumeMidSnapshot kills the async writer partway through the
// second generation's files — the crash window the manifest protocol
// exists for. The partial generation must be skipped and the run resumed
// from the first, replaying to a bit-identical end state.
func TestKillResumeMidSnapshot(t *testing.T) {
	const k, ranks, batch = 3, 2, 2
	base := EngineConfig{Stage: Stage3, Overlap: true, PrefetchDepth: 2,
		LossScale: 128, DynamicLossScale: true, Seed: 5}

	ecfg := base
	ecfg.CheckpointDir = t.TempDir()
	ecfg.CheckpointEvery = 2 * k
	baseRes, err := Train(TrainOptions{
		Model: resumeModel(), Engine: ecfg, Ranks: ranks, Steps: 2 * k, BatchPerRank: batch,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantW := finalWeights(t, ecfg.CheckpointDir)

	// Interrupted: snapshots at k and 2k; the writer dies after the 4th
	// data file — mid-generation-2k, post-generation-k (3 files each).
	icfg := base
	icfg.CheckpointDir = t.TempDir()
	icfg.CheckpointEvery = k
	resA, err := Train(TrainOptions{
		Model: resumeModel(), Engine: icfg, Ranks: ranks, Steps: 2 * k, BatchPerRank: batch,
		ckptWriter: &ckpt.WriterOptions{KillAfter: ranks + 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(resA.CheckpointErr, ckpt.ErrKilled) {
		t.Fatalf("want ErrKilled from the interrupted run, got %v", resA.CheckpointErr)
	}
	set, err := ckpt.LatestComplete(icfg.CheckpointDir)
	if err != nil {
		t.Fatal(err)
	}
	if set.Manifest.Step != k {
		t.Fatalf("surviving generation is step %d, want %d", set.Manifest.Step, k)
	}

	resB, err := Train(TrainOptions{
		Model: resumeModel(), Engine: icfg, Ranks: ranks, Steps: 2 * k, BatchPerRank: batch,
		Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resB.CheckpointErr != nil {
		t.Fatal(resB.CheckpointErr)
	}
	if resB.StartStep != k {
		t.Fatalf("resumed from step %d, want %d", resB.StartStep, k)
	}
	assertSameLosses(t, resB.Losses, baseRes.Losses[k:], k)
	assertSameWeights(t, finalWeights(t, icfg.CheckpointDir), wantW)
}

// TestResumeAfterInjectedTornWrite arms a persistent torn-write fault that
// starts partway through the second snapshot: its generation never commits
// (each torn temp file fails and is discarded), and resume falls back to
// the first generation.
func TestResumeAfterInjectedTornWrite(t *testing.T) {
	const k, ranks, batch = 3, 2, 2
	base := EngineConfig{Stage: StageDDP, LossScale: 128, DynamicLossScale: true, Seed: 5}

	ecfg := base
	ecfg.CheckpointDir = t.TempDir()
	ecfg.CheckpointEvery = 2 * k
	baseRes, err := Train(TrainOptions{
		Model: resumeModel(), Engine: ecfg, Ranks: ranks, Steps: 2 * k, BatchPerRank: batch,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantW := finalWeights(t, ecfg.CheckpointDir)

	// Generation k writes ranks+2 files (ranks + weights + MANIFEST), each
	// one write sub-request at this size; everything after that tears.
	inj := &nvme.FaultInjector{}
	inj.Arm(nvme.FaultArm{Op: nvme.Write, Nth: int64(ranks) + 3, Count: 1 << 30, Mode: nvme.FaultTorn})
	icfg := base
	icfg.CheckpointDir = t.TempDir()
	icfg.CheckpointEvery = k
	resA, err := Train(TrainOptions{
		Model: resumeModel(), Engine: icfg, Ranks: ranks, Steps: 2 * k, BatchPerRank: batch,
		ckptWriter: &ckpt.WriterOptions{Faults: inj, Retries: 1, RetryBackoff: time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(resA.CheckpointErr, nvme.ErrInjected) {
		t.Fatalf("want ErrInjected from the faulted run, got %v", resA.CheckpointErr)
	}
	set, err := ckpt.LatestComplete(icfg.CheckpointDir)
	if err != nil {
		t.Fatal(err)
	}
	if set.Manifest.Step != k {
		t.Fatalf("surviving generation is step %d, want %d", set.Manifest.Step, k)
	}

	resB, err := Train(TrainOptions{
		Model: resumeModel(), Engine: icfg, Ranks: ranks, Steps: 2 * k, BatchPerRank: batch,
		Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resB.CheckpointErr != nil {
		t.Fatal(resB.CheckpointErr)
	}
	assertSameLosses(t, resB.Losses, baseRes.Losses[k:], k)
	assertSameWeights(t, finalWeights(t, icfg.CheckpointDir), wantW)
}

// TestResumeRefusesCorruptOnlyGeneration replays a checkpoint directory
// whose only generation has a truncated rank file: resume must fail naming
// the generation rather than cold-start and overwrite it, leaving every file
// byte for byte as it was.
func TestResumeRefusesCorruptOnlyGeneration(t *testing.T) {
	ecfg := EngineConfig{Stage: Stage2, LossScale: 128, Seed: 5}
	ecfg.CheckpointDir = t.TempDir()
	ecfg.CheckpointEvery = 2
	if _, err := Train(TrainOptions{
		Model: resumeModel(), Engine: ecfg, Ranks: 3, Steps: 2, BatchPerRank: 2,
	}); err != nil {
		t.Fatal(err)
	}
	gen := filepath.Join(ecfg.CheckpointDir, ckpt.GenDirName(2))
	rank1 := filepath.Join(gen, ckpt.RankFileName(1))
	fi, err := os.Stat(rank1)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(rank1, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	before := dirBytes(t, ecfg.CheckpointDir)

	_, err = Train(TrainOptions{
		Model: resumeModel(), Engine: ecfg, Ranks: 3, Steps: 4, BatchPerRank: 2, Resume: true,
	})
	var invalid *ckpt.InvalidGenerationsError
	if !errors.As(err, &invalid) || !strings.Contains(err.Error(), gen) {
		t.Fatalf("resume over a corrupt-only directory: got %v, want an error naming %s", err, gen)
	}
	after := dirBytes(t, ecfg.CheckpointDir)
	if len(after) != len(before) {
		t.Fatalf("checkpoint directory changed from %d to %d files", len(before), len(after))
	}
	for name, b := range before {
		if !bytes.Equal(after[name], b) {
			t.Fatalf("%s changed", name)
		}
	}
}

// TestResumeReportsSkippedGeneration: resume falls back past a corrupt
// newer generation, says so in the result, and still replays the
// uninterrupted run from the older one.
func TestResumeReportsSkippedGeneration(t *testing.T) {
	ecfg := EngineConfig{Stage: Stage2, LossScale: 128, Seed: 5}
	ecfg.CheckpointDir = t.TempDir()
	ecfg.CheckpointEvery = 2
	full, err := Train(TrainOptions{
		Model: resumeModel(), Engine: ecfg, Ranks: 3, Steps: 4, BatchPerRank: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen4 := filepath.Join(ecfg.CheckpointDir, ckpt.GenDirName(4))
	if err := os.Truncate(filepath.Join(gen4, ckpt.RankFileName(1)), 1); err != nil {
		t.Fatal(err)
	}
	res, err := Train(TrainOptions{
		Model: resumeModel(), Engine: ecfg, Ranks: 3, Steps: 4, BatchPerRank: 2, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.StartStep != 2 || len(res.ResumeSkipped) != 1 || !strings.Contains(res.ResumeSkipped[0].Error(), gen4) {
		t.Fatalf("resumed from step %d, skipped %v; want step 2 past %s", res.StartStep, res.ResumeSkipped, gen4)
	}
	assertSameLosses(t, res.Losses, full.Losses[2:], 2)
}

// dirBytes reads every regular file under dir, keyed by relative path.
func dirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		out[rel] = b
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestResumeWorldSizeMismatch: a checkpoint taken at one world size must be
// rejected, not silently misloaded, at another.
func TestResumeWorldSizeMismatch(t *testing.T) {
	ecfg := EngineConfig{Stage: StageDDP, LossScale: 128, Seed: 5}
	ecfg.CheckpointDir = t.TempDir()
	ecfg.CheckpointEvery = 2
	if _, err := Train(TrainOptions{
		Model: resumeModel(), Engine: ecfg, Ranks: 2, Steps: 2, BatchPerRank: 2,
	}); err != nil {
		t.Fatal(err)
	}
	_, err := Train(TrainOptions{
		Model: resumeModel(), Engine: ecfg, Ranks: 4, Steps: 4, BatchPerRank: 2, Resume: true,
	})
	if err == nil {
		t.Fatal("resume with mismatched world size was accepted")
	}
}

// TestResumeColdStartsOnEmptyDir: Resume against an empty directory is a
// cold start, not an error.
func TestResumeColdStartsOnEmptyDir(t *testing.T) {
	ecfg := EngineConfig{Stage: StageDDP, LossScale: 128, Seed: 5}
	ecfg.CheckpointDir = t.TempDir()
	ecfg.CheckpointEvery = 2
	res, err := Train(TrainOptions{
		Model: resumeModel(), Engine: ecfg, Ranks: 2, Steps: 2, BatchPerRank: 2, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.StartStep != 0 || len(res.Losses) != 2 {
		t.Fatalf("cold start ran steps %d..%d with %d losses", res.StartStep, res.FinalStep, len(res.Losses))
	}
}

// TestStopTakesFinalSnapshot: a close()d Stop channel halts training at a
// consensus step boundary with a resumable final snapshot.
func TestStopTakesFinalSnapshot(t *testing.T) {
	ecfg := EngineConfig{Stage: StageDDP, LossScale: 128, DynamicLossScale: true, Seed: 5}
	ecfg.CheckpointDir = t.TempDir()
	ecfg.CheckpointEvery = 100 // periodic snapshots never fire
	stop := make(chan struct{})
	res, err := Train(TrainOptions{
		Model: resumeModel(), Engine: ecfg, Ranks: 2, Steps: 50, BatchPerRank: 2,
		Stop: stop,
		// Close from rank 0's step-2 callback: the consensus check at the
		// step-3 boundary sees it, so the stop point is deterministic.
		OnStep: func(s int, _ StepResult) {
			if s == 2 {
				close(stop)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CheckpointErr != nil {
		t.Fatal(res.CheckpointErr)
	}
	if res.FinalStep != 3 {
		t.Fatalf("expected a stop at step 3, got final step %d", res.FinalStep)
	}
	set, err := ckpt.LatestComplete(ecfg.CheckpointDir)
	if err != nil {
		t.Fatal(err)
	}
	if set.Manifest.Step != res.FinalStep {
		t.Fatalf("final snapshot is step %d, want %d", set.Manifest.Step, res.FinalStep)
	}
	res2, err := Train(TrainOptions{
		Model: resumeModel(), Engine: ecfg, Ranks: 2, Steps: res.FinalStep + 2, BatchPerRank: 2,
		Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.StartStep != res.FinalStep || len(res2.Losses) != 2 {
		t.Fatalf("resume after stop ran steps %d..%d", res2.StartStep, res2.FinalStep)
	}
}
