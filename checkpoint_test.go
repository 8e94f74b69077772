package zeroinf_test

import (
	"bytes"
	"encoding/binary"
	"strings"
	"sync"
	"testing"

	zeroinf "repro"
)

func TestCheckpointRoundTripBytes(t *testing.T) {
	params := map[string][]float32{
		"b.w": {1, 2, 3},
		"a.w": {-0.5, 0.25},
	}
	var buf bytes.Buffer
	if err := zeroinf.WriteCheckpoint(&buf, params); err != nil {
		t.Fatal(err)
	}
	got, err := zeroinf.ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("params = %d", len(got))
	}
	for name, want := range params {
		for i, v := range want {
			if got[name][i] != v {
				t.Fatalf("%s[%d] = %g, want %g", name, i, got[name][i], v)
			}
		}
	}
	// Deterministic bytes: re-writing gives identical output.
	var buf2 bytes.Buffer
	if err := zeroinf.WriteCheckpoint(&buf2, params); err != nil {
		t.Fatal(err)
	}
	var buf3 bytes.Buffer
	if err := zeroinf.WriteCheckpoint(&buf3, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf2.Bytes(), buf3.Bytes()) {
		t.Fatal("checkpoint bytes not reproducible")
	}
}

func TestReadCheckpointRejectsGarbage(t *testing.T) {
	if _, err := zeroinf.ReadCheckpoint(bytes.NewReader([]byte("NOPE----"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := zeroinf.ReadCheckpoint(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
}

// Train with DDP, checkpoint, load into fresh DDP and fresh ZeRO-Infinity
// engines: weights must match bit for bit, and continued training from the
// checkpoint must be identical across the two engines.
func TestCheckpointTransfersAcrossEngines(t *testing.T) {
	mcfg := tinyModel()
	const ranks, batch = 2, 2

	// Phase 1: pretrain with DDP and save.
	var ckpt bytes.Buffer
	zeroinf.SPMD(ranks, func(c *zeroinf.Comm) {
		g, _ := zeroinf.NewModel(mcfg)
		e, err := zeroinf.NewEngine(zeroinf.EngineConfig{Stage: zeroinf.StageDDP, LossScale: 64, Seed: 3}, c, g)
		if err != nil {
			t.Error(err)
			return
		}
		defer e.Close()
		for s := 0; s < 3; s++ {
			tok, tgt := zeroinf.SyntheticBatch(uint64(10+s*10+c.Rank()), mcfg, batch)
			if _, err := e.Step(tok, tgt, batch); err != nil {
				t.Error(err)
				return
			}
		}
		params := e.FullParams() // collective
		if c.Rank() == 0 {
			if err := zeroinf.WriteCheckpoint(&ckpt, params); err != nil {
				t.Error(err)
			}
		}
	})
	if ckpt.Len() == 0 {
		t.Fatal("no checkpoint written")
	}

	// Phase 2: load into two fresh engines and continue identically.
	resume := func(ecfg zeroinf.EngineConfig) []float64 {
		var losses []float64
		var mu sync.Mutex
		zeroinf.SPMD(ranks, func(c *zeroinf.Comm) {
			g, _ := zeroinf.NewModel(mcfg)
			e, err := zeroinf.NewEngine(ecfg, c, g)
			if err != nil {
				t.Error(err)
				return
			}
			defer e.Close()
			if err := loadWeights(ckpt.Bytes(), e); err != nil {
				t.Error(err)
				return
			}
			var local []float64
			for s := 0; s < 3; s++ {
				tok, tgt := zeroinf.SyntheticBatch(uint64(500+s*10+c.Rank()), mcfg, batch)
				res, err := e.Step(tok, tgt, batch)
				if err != nil {
					t.Error(err)
					return
				}
				local = append(local, res.Loss)
			}
			if c.Rank() == 0 {
				mu.Lock()
				losses = local
				mu.Unlock()
			}
		})
		return losses
	}
	ddp := resume(zeroinf.EngineConfig{Stage: zeroinf.StageDDP, LossScale: 64, Seed: 999})
	inf := resume(zeroinf.EngineConfig{Infinity: true, Params: zeroinf.OnNVMe,
		Optimizer: zeroinf.OnNVMe, LossScale: 64, Seed: 999})
	if len(ddp) != 3 || len(inf) != 3 {
		t.Fatalf("resume lengths %d %d", len(ddp), len(inf))
	}
	for i := range ddp {
		if ddp[i] != inf[i] {
			t.Fatalf("resumed trajectories diverged at step %d: %.17g vs %.17g", i, ddp[i], inf[i])
		}
	}
}

func TestGradAccumViaFacade(t *testing.T) {
	res, err := zeroinf.Train(zeroinf.TrainOptions{
		Model:          tinyModel(),
		Engine:         zeroinf.EngineConfig{Stage: zeroinf.Stage3, LossScale: 64, Seed: 4, ClipNorm: 1.0},
		Ranks:          2,
		Steps:          2,
		BatchPerRank:   2,
		GradAccumSteps: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Losses) != 2 {
		t.Fatalf("losses = %d", len(res.Losses))
	}
}

// Checkpoint round-trip on a tiled model (ModelConfig.Tiling): each tile is
// an independent named parameter, so WriteCheckpoint/ReadCheckpoint +
// LoadParams must carry a tiled model across every engine family with
// bit-identical resumed trajectories.
func TestCheckpointRoundTripTiledModel(t *testing.T) {
	mcfg := tinyModel()
	mcfg.Tiling = 4
	const ranks, batch = 2, 2

	// Pretrain the tiled model with DDP and save.
	var ckpt bytes.Buffer
	zeroinf.SPMD(ranks, func(c *zeroinf.Comm) {
		g, _ := zeroinf.NewModel(mcfg)
		e, err := zeroinf.NewEngine(zeroinf.EngineConfig{Stage: zeroinf.StageDDP, LossScale: 64, Seed: 3}, c, g)
		if err != nil {
			t.Error(err)
			return
		}
		defer e.Close()
		for s := 0; s < 3; s++ {
			tok, tgt := zeroinf.SyntheticBatch(uint64(10+s*10+c.Rank()), mcfg, batch)
			if _, err := e.Step(tok, tgt, batch); err != nil {
				t.Error(err)
				return
			}
		}
		params := e.FullParams()
		if c.Rank() == 0 {
			if err := zeroinf.WriteCheckpoint(&ckpt, params); err != nil {
				t.Error(err)
			}
		}
	})
	if ckpt.Len() == 0 {
		t.Fatal("no checkpoint written")
	}
	saved, err := zeroinf.ReadCheckpoint(bytes.NewReader(ckpt.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	tileParams := 0
	for name := range saved {
		if strings.Contains(name, ".tile") {
			tileParams++
		}
	}
	if tileParams == 0 {
		t.Fatal("tiled checkpoint contains no tile parameters")
	}

	resume := func(ecfg zeroinf.EngineConfig) []float64 {
		var losses []float64
		var mu sync.Mutex
		zeroinf.SPMD(ranks, func(c *zeroinf.Comm) {
			g, _ := zeroinf.NewModel(mcfg)
			e, err := zeroinf.NewEngine(ecfg, c, g)
			if err != nil {
				t.Error(err)
				return
			}
			defer e.Close()
			if err := loadWeights(ckpt.Bytes(), e); err != nil {
				t.Error(err)
				return
			}
			var local []float64
			for s := 0; s < 3; s++ {
				tok, tgt := zeroinf.SyntheticBatch(uint64(500+s*10+c.Rank()), mcfg, batch)
				res, err := e.Step(tok, tgt, batch)
				if err != nil {
					t.Error(err)
					return
				}
				local = append(local, res.Loss)
			}
			if c.Rank() == 0 {
				mu.Lock()
				losses = local
				mu.Unlock()
			}
		})
		return losses
	}
	ddp := resume(zeroinf.EngineConfig{Stage: zeroinf.StageDDP, LossScale: 64, Seed: 999})
	z2 := resume(zeroinf.EngineConfig{Stage: zeroinf.Stage2, LossScale: 64, Seed: 999})
	z3 := resume(zeroinf.EngineConfig{Stage: zeroinf.Stage3, LossScale: 64, Seed: 999})
	infc := resume(zeroinf.EngineConfig{Infinity: true, Params: zeroinf.OnCPU,
		Optimizer: zeroinf.OnCPU, LossScale: 64, Seed: 999})
	infn := resume(zeroinf.EngineConfig{Infinity: true, Params: zeroinf.OnNVMe,
		Optimizer: zeroinf.OnNVMe, PrefetchDepth: 2, Overlap: true, LossScale: 64, Seed: 999})
	if len(ddp) != 3 {
		t.Fatalf("resume ran %d steps", len(ddp))
	}
	for name, got := range map[string][]float64{"zero2": z2, "zero3": z3, "infinity-cpu": infc, "infinity-nvme": infn} {
		if len(got) != len(ddp) {
			t.Fatalf("%s resume ran %d steps, want %d", name, len(got), len(ddp))
		}
		for i := range ddp {
			if got[i] != ddp[i] {
				t.Fatalf("tiled resume diverged from ddp at step %d (%s): %.17g vs %.17g",
					i, name, got[i], ddp[i])
			}
		}
	}
}

// ckptBytes hand-assembles a checkpoint stream: magic, version, count, then
// one record per (name, elems) pair with zeroed fp16 payloads.
func ckptBytes(count uint32, records []struct {
	name  string
	elems int
}) []byte {
	var buf bytes.Buffer
	buf.WriteString("ZINF")
	binary.Write(&buf, binary.LittleEndian, uint32(1)) // version
	binary.Write(&buf, binary.LittleEndian, count)
	for _, r := range records {
		binary.Write(&buf, binary.LittleEndian, uint32(len(r.name)))
		buf.WriteString(r.name)
		binary.Write(&buf, binary.LittleEndian, uint64(r.elems))
		buf.Write(make([]byte, 2*r.elems))
	}
	return buf.Bytes()
}

// Duplicate parameter names used to be swallowed silently (last one wins),
// masking corrupt or maliciously spliced checkpoints.
func TestReadCheckpointRejectsDuplicateNames(t *testing.T) {
	recs := []struct {
		name  string
		elems int
	}{{"w", 3}, {"w", 3}}
	if _, err := zeroinf.ReadCheckpoint(bytes.NewReader(ckptBytes(2, recs))); err == nil {
		t.Fatal("duplicate parameter name accepted")
	} else if !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("wrong error: %v", err)
	}
}

// Bytes after the declared parameter count indicate corruption (e.g. a
// truncated count field) and must not be silently ignored.
func TestReadCheckpointRejectsTrailingBytes(t *testing.T) {
	recs := []struct {
		name  string
		elems int
	}{{"w", 3}}
	good := ckptBytes(1, recs)
	if _, err := zeroinf.ReadCheckpoint(bytes.NewReader(good)); err != nil {
		t.Fatalf("clean checkpoint rejected: %v", err)
	}
	if _, err := zeroinf.ReadCheckpoint(bytes.NewReader(append(good, 0xAB))); err == nil {
		t.Fatal("trailing byte accepted")
	} else if !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("wrong error: %v", err)
	}
}

// Checkpoints written by the overlap engines (async collectives + gather
// prefetch) and resumed into them must behave exactly like the synchronous
// engines — save/load is collective-order sensitive, so this guards the
// overlap engines' sequence-number bookkeeping across FullParams/LoadParams.
func TestCheckpointRoundTripOverlapEngines(t *testing.T) {
	mcfg := tinyModel()
	const ranks, batch = 2, 2

	// Pretrain WITH overlap and save.
	var ckpt bytes.Buffer
	zeroinf.SPMD(ranks, func(c *zeroinf.Comm) {
		g, _ := zeroinf.NewModel(mcfg)
		e, err := zeroinf.NewEngine(zeroinf.EngineConfig{Stage: zeroinf.Stage3,
			PrefetchDepth: 2, Overlap: true, LossScale: 64, Seed: 3}, c, g)
		if err != nil {
			t.Error(err)
			return
		}
		defer e.Close()
		for s := 0; s < 3; s++ {
			tok, tgt := zeroinf.SyntheticBatch(uint64(10+s*10+c.Rank()), mcfg, batch)
			if _, err := e.Step(tok, tgt, batch); err != nil {
				t.Error(err)
				return
			}
		}
		params := e.FullParams()
		if c.Rank() == 0 {
			if err := zeroinf.WriteCheckpoint(&ckpt, params); err != nil {
				t.Error(err)
			}
		}
	})
	if ckpt.Len() == 0 {
		t.Fatal("no checkpoint written")
	}

	resume := func(ecfg zeroinf.EngineConfig) []float64 {
		var losses []float64
		var mu sync.Mutex
		zeroinf.SPMD(ranks, func(c *zeroinf.Comm) {
			g, _ := zeroinf.NewModel(mcfg)
			e, err := zeroinf.NewEngine(ecfg, c, g)
			if err != nil {
				t.Error(err)
				return
			}
			defer e.Close()
			if err := loadWeights(ckpt.Bytes(), e); err != nil {
				t.Error(err)
				return
			}
			var local []float64
			for s := 0; s < 3; s++ {
				tok, tgt := zeroinf.SyntheticBatch(uint64(500+s*10+c.Rank()), mcfg, batch)
				res, err := e.Step(tok, tgt, batch)
				if err != nil {
					t.Error(err)
					return
				}
				local = append(local, res.Loss)
			}
			if c.Rank() == 0 {
				mu.Lock()
				losses = local
				mu.Unlock()
			}
		})
		return losses
	}
	ddp := resume(zeroinf.EngineConfig{Stage: zeroinf.StageDDP, LossScale: 64, Seed: 999})
	z3o := resume(zeroinf.EngineConfig{Stage: zeroinf.Stage3,
		PrefetchDepth: 2, Overlap: true, LossScale: 64, Seed: 999})
	info := resume(zeroinf.EngineConfig{Infinity: true, Params: zeroinf.OnNVMe, Optimizer: zeroinf.OnNVMe,
		PrefetchDepth: 2, Overlap: true, LossScale: 64, Seed: 999})
	for i := range ddp {
		if ddp[i] != z3o[i] || ddp[i] != info[i] {
			t.Fatalf("overlap resume diverged at step %d: ddp %.17g z3 %.17g infinity %.17g",
				i, ddp[i], z3o[i], info[i])
		}
	}
}

// loadWeights installs a weights.zinf image into e: ReadCheckpoint, then
// the engine's LoadParams.
func loadWeights(image []byte, e zeroinf.Engine) error {
	params, err := zeroinf.ReadCheckpoint(bytes.NewReader(image))
	if err != nil {
		return err
	}
	return e.(interface {
		LoadParams(map[string][]float32) error
	}).LoadParams(params)
}
