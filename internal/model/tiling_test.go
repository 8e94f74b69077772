package model

import (
	"math"
	"strings"
	"testing"

	"repro/internal/module"
	"repro/internal/tensor"
)

// Tiled and dense linear must be mathematically equivalent (paper Sec.
// 5.1.3: "a mathematically equivalent sequence of smaller linear
// operators").
func TestTiledLinearMatchesDense(t *testing.T) {
	const in, out, tiles, rows = 12, 24, 4, 5
	tl := NewTiledLinear("tl", in, out, tiles, true, 0.2)
	for _, p := range module.AllParams(tl) {
		p.SetData(InitValues(p, 3))
	}
	w, b := tl.AssembleDense()

	rt := module.NewRuntime(nil)
	x := tensor.New(tensor.FP32, rows, in)
	tensor.NewRNG(4).FillNormal(x.Float32s(), 1)

	yTiled := rt.Forward(tl, x)

	yDense := tensor.New(tensor.FP32, rows, out)
	tensor.MatMul(yDense.Float32s(), x.Float32s(), w, rows, in, out)
	for r := 0; r < rows; r++ {
		tensor.Axpy(1, b, yDense.Float32s()[r*out:(r+1)*out])
	}
	if d := tensor.MaxAbsDiff(yTiled, yDense); d != 0 {
		t.Fatalf("tiled forward differs from dense by %g (should be exact)", d)
	}

	// Backward: dx matches dense dy·Wᵀ within float tolerance (summation
	// order differs across tiles).
	dy := tensor.New(tensor.FP32, rows, out)
	tensor.NewRNG(5).FillNormal(dy.Float32s(), 1)
	dxTiled := rt.Backward(tl, dy)
	dxDense := tensor.New(tensor.FP32, rows, in)
	tensor.MatMulTransB(dxDense.Float32s(), dy.Float32s(), w, rows, out, in)
	if d := tensor.MaxAbsDiff(dxTiled, dxDense); d > 1e-4 {
		t.Fatalf("tiled backward dx differs by %g", d)
	}
}

// The examples/tiling claim as a real test: for a FIXED dense weight, the
// forward output is bit-identical across every tiling factor — each output
// element accumulates the same products in the same order regardless of
// which column tile computes it.
func TestTiledForwardBitIdenticalAcrossFactors(t *testing.T) {
	const in, out, rows = 12, 24, 5
	dense := NewLinear("op", in, out, true, 0.2)
	materialize(dense, 6)
	w := append([]float32(nil), dense.W.Data()...)
	b := append([]float32(nil), dense.B.Data()...)

	rt := module.NewRuntime(nil)
	x := tensor.New(tensor.FP32, rows, in)
	tensor.NewRNG(7).FillNormal(x.Float32s(), 1)
	ref := rt.Forward(dense, x)

	for _, tiles := range []int{1, 2, 4, 8} {
		tl := NewTiledLinear("op", in, out, tiles, true, 0.2)
		tl.LoadDense(w, b)
		y := rt.Forward(tl, x)
		if d := tensor.MaxAbsDiff(ref, y); d != 0 {
			t.Fatalf("tiles=%d forward differs from dense by %g (want bit-identical)", tiles, d)
		}
	}
}

func TestTiledLinearGradCheck(t *testing.T) {
	const in, out, tiles, rows = 6, 8, 2, 3
	tl := NewTiledLinear("tl", in, out, tiles, true, 0.3)
	for _, p := range module.AllParams(tl) {
		p.SetData(InitValues(p, 8))
		p.Grad()
		p.ZeroGrad()
	}
	rt := module.NewRuntime(nil)
	x := tensor.New(tensor.FP32, rows, in)
	tensor.NewRNG(9).FillNormal(x.Float32s(), 1)
	r := make([]float32, rows*out)
	tensor.NewRNG(10).FillNormal(r, 1)

	rt.Forward(tl, x)
	dx := rt.Backward(tl, tensor.FromSlice(append([]float32(nil), r...), rows, out))

	const h = 1e-2
	xd := x.Float32s()
	for i := 0; i < len(xd); i += 4 {
		orig := xd[i]
		xd[i] = orig + h
		yp := rt.Forward(tl, x)
		rt.Backward(tl, tensor.FromSlice(append([]float32(nil), r...), rows, out))
		xd[i] = orig - h
		ym := rt.Forward(tl, x)
		rt.Backward(tl, tensor.FromSlice(append([]float32(nil), r...), rows, out))
		xd[i] = orig
		num := (tensor.Dot(yp.Float32s(), r) - tensor.Dot(ym.Float32s(), r)) / (2 * h)
		got := float64(dx.Float32s()[i])
		if math.Abs(num-got) > 2e-2*(1+math.Abs(num)) {
			t.Errorf("dx[%d]: analytic %g numeric %g", i, got, num)
		}
	}
}

// Each tile parameter's fp16 footprint — the contiguous-allocation
// requirement — drops by the tile factor.
func TestTilingReducesMaxAllocation(t *testing.T) {
	for _, tc := range []struct{ tiles, want int64 }{{1, 64 * 256 * 2}, {8, 64 * 256 * 2 / 8}} {
		tl := NewTiledLinear("t", 64, 256, int(tc.tiles), false, 0.1)
		params := module.AllParams(tl)
		if int64(len(params)) != tc.tiles {
			t.Fatalf("%d tiles: %d parameters", tc.tiles, len(params))
		}
		for _, p := range params {
			if p.FP16Bytes() != tc.want {
				t.Fatalf("%d tiles: %s holds %d fp16 bytes, want %d", tc.tiles, p.Name, p.FP16Bytes(), tc.want)
			}
		}
	}
}

func TestTiledLinearRejectsBadTileCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-dividing tile count did not panic")
		}
	}()
	NewTiledLinear("x", 4, 10, 3, false, 0.1)
}

// A Tiling config builds every large projection — including the embedding
// table behind the tied head — as independent tile parameters, without
// changing the total parameter count.
func TestTiledModelStructure(t *testing.T) {
	cfg := Config{Vocab: 16, Hidden: 16, Heads: 2, Seq: 6, Layers: 2, Tiling: 4}
	g := MustGPT(cfg)
	if got, want := module.NumParams(g), cfg.ExactParamCount(); got != want {
		t.Fatalf("tiled NumParams = %d, want %d", got, want)
	}
	var maxElems, tileParams int
	for _, p := range module.AllParams(g) {
		if p.Len() > maxElems {
			maxElems = p.Len()
		}
		if strings.Contains(p.Name, ".tile") {
			tileParams++
		}
	}
	// Largest dense param would be fc1's [16, 64] weight; tiled it is a
	// quarter of that (the embedding tiles are smaller still).
	if maxElems > 16*64/4 {
		t.Fatalf("largest tiled param has %d elems, want <= %d", maxElems, 16*64/4)
	}
	if tileParams == 0 {
		t.Fatal("no tile parameters built")
	}
	// qkv/proj/fc1/fc2 weights+biases per block ×2 blocks ×4 tiles, plus
	// 4 embedding tiles.
	if want := 2*4*2*4 + 4; tileParams != want {
		t.Fatalf("tile params = %d, want %d", tileParams, want)
	}
}

func TestConfigValidateTiling(t *testing.T) {
	bad := []Config{
		{Vocab: 16, Hidden: 16, Heads: 2, Seq: 6, Layers: 1, Tiling: -1},
		{Vocab: 16, Hidden: 18, Heads: 2, Seq: 6, Layers: 1, Tiling: 4}, // 4 ∤ 18
		{Vocab: 10, Hidden: 16, Heads: 2, Seq: 6, Layers: 1, Tiling: 4}, // 4 ∤ 10
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d validated unexpectedly: %+v", i, c)
		}
	}
	ok := Config{Vocab: 16, Hidden: 16, Heads: 2, Seq: 6, Layers: 1, Tiling: 4}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid tiled config rejected: %v", err)
	}
	// Vocab 0 (hidden-state mode) has no divisibility constraint on vocab.
	hs := Config{Hidden: 16, Heads: 2, Seq: 6, Layers: 1, Tiling: 4}
	if err := hs.Validate(); err != nil {
		t.Errorf("hidden-state tiled config rejected: %v", err)
	}
}

// End-to-end gradient check through the tiled model: tiled projections,
// vocab-tiled embedding and the per-tile tied head all backpropagate
// correctly.
func TestTiledGPTEndToEndGradCheck(t *testing.T) {
	cfg := Config{Vocab: 8, Hidden: 8, Heads: 2, Seq: 4, Layers: 1, Tiling: 2}
	g := MustGPT(cfg)
	materialize(g, 23)
	zeroGrads(g)
	rt := module.NewRuntime(nil)
	tokens, targets := SyntheticBatch(tensor.NewRNG(24), cfg, 2)

	g.ForwardLoss(rt, tokens, targets, 2)
	g.BackwardLoss(rt, 1)

	const h = 1e-2
	for _, p := range []*module.Param{
		g.Blocks[0].FC1.(*TiledLinear).Tile(1).W,
		g.Blocks[0].Attn.QKV.(*TiledLinear).Tile(0).W,
		g.Embed.TokTiles[1],
		g.Embed.Pos,
	} {
		data := p.Data()
		step := len(data)/8 + 1
		for i := 0; i < len(data); i += step {
			orig := data[i]
			data[i] = orig + h
			lp := g.ForwardLoss(rt, tokens, targets, 2)
			g.BackwardLoss(rt, 0)
			data[i] = orig - h
			lm := g.ForwardLoss(rt, tokens, targets, 2)
			g.BackwardLoss(rt, 0)
			data[i] = orig
			num := (lp - lm) / (2 * h)
			got := float64(p.Grad()[i])
			if math.Abs(num-got) > 5e-2*(1+math.Abs(num)) {
				t.Errorf("%s grad[%d]: analytic %g numeric %g", p.Name, i, got, num)
			}
		}
	}
}

// Activation checkpointing on a tiled model must not change the math: the
// tiles follow Linear's save/recompute discipline exactly.
func TestTiledCheckpointingExactlyMatchesPlain(t *testing.T) {
	run := func(ckpt bool) (float64, [][]float32) {
		cfg := Config{Vocab: 8, Hidden: 8, Heads: 2, Seq: 4, Layers: 2,
			Tiling: 2, CheckpointActivations: ckpt}
		g := MustGPT(cfg)
		materialize(g, 33)
		zeroGrads(g)
		rt := module.NewRuntime(nil)
		tokens, targets := SyntheticBatch(tensor.NewRNG(34), cfg, 2)
		loss := g.ForwardLoss(rt, tokens, targets, 2)
		g.BackwardLoss(rt, 1)
		var grads [][]float32
		for _, p := range module.AllParams(g) {
			grads = append(grads, append([]float32(nil), p.Grad()...))
		}
		return loss, grads
	}
	l1, g1 := run(false)
	l2, g2 := run(true)
	if l1 != l2 {
		t.Fatalf("checkpointing changed tiled loss: %g vs %g", l1, l2)
	}
	for i := range g1 {
		for j := range g1[i] {
			if g1[i][j] != g2[i][j] {
				t.Fatalf("checkpointing changed tiled grad[%d][%d]: %g vs %g", i, j, g1[i][j], g2[i][j])
			}
		}
	}
}
