package model

import (
	"fmt"

	"repro/internal/module"
	"repro/internal/tensor"
)

// Projection is a linear projection operator in the model: either a dense
// Linear or its memory-centric tiled equivalent. Both expose the same layer
// and flop-count surface, so the model builds large projections through
// NewProjection without caring which representation the config selected.
type Projection interface {
	module.Layer
	FlopsPerRow() int64
}

// NewProjection returns a dense Linear when tiles <= 1, otherwise a
// TiledLinear splitting the output dimension into tiles column tiles.
func NewProjection(name string, in, out int, bias bool, initStd float64, tiles int) Projection {
	if tiles <= 1 {
		return NewLinear(name, in, out, bias, initStd)
	}
	return NewTiledLinear(name, in, out, tiles, bias, initStd)
}

// TiledLinear is memory-centric tiling (paper Sec. 5.1.3): a linear operator
// represented as a mathematically-equivalent sequence of column tiles, each
// a separate submodule with its own parameters. Combined with the ZeRO-3 /
// ZeRO-Infinity fetch-and-release pattern, the working memory for the
// operator drops from the full weight to one tile's weight, so operators of
// arbitrary size run without model parallelism — and without needing a
// contiguous allocation larger than a tile (the Fig. 6b scenario).
//
// Because each tile is an ordinary Linear child module, engines need no
// special-casing: gather/release hooks, the overlap trace, and the comm and
// NVMe prefetchers all operate per tile. Save-activation and checkpointing
// behaviour is exactly Linear's — each tile stashes the shared input when
// rt.SaveActivations() is set, and nothing when a checkpointed block runs
// its main forward.
type TiledLinear struct {
	module.Base
	In, Out, Tiles int
	TileOut        int
	tiles          []*Linear
}

// NewTiledLinear splits a [in, out] linear layer into tiles column tiles.
// out must be divisible by tiles.
func NewTiledLinear(name string, in, out, tiles int, bias bool, initStd float64) *TiledLinear {
	if tiles <= 0 || out%tiles != 0 {
		panic(fmt.Sprintf("model: tiles %d must divide out %d", tiles, out))
	}
	tl := &TiledLinear{In: in, Out: out, Tiles: tiles, TileOut: out / tiles}
	tl.ModName = name
	for t := 0; t < tiles; t++ {
		l := NewLinear(fmt.Sprintf("%s.tile%d", name, t), in, tl.TileOut, bias, initStd)
		tl.tiles = append(tl.tiles, l)
		tl.Kids = append(tl.Kids, l)
	}
	return tl
}

// Tile returns the t-th column tile.
func (tl *TiledLinear) Tile(t int) *Linear { return tl.tiles[t] }

// copyBand copies a [rows, width] tile result into the column band starting
// at off of the [rows, fullWidth] destination.
//
//zinf:hotpath
func copyBand(dst, src []float32, rows, fullWidth, off, width int) {
	for r := 0; r < rows; r++ {
		copy(dst[r*fullWidth+off:r*fullWidth+off+width], src[r*width:(r+1)*width])
	}
}

// sliceBand extracts the column band starting at off of the [rows,
// fullWidth] source into a [rows, width] destination.
//
//zinf:hotpath
func sliceBand(dst, src []float32, rows, fullWidth, off, width int) {
	for r := 0; r < rows; r++ {
		copy(dst[r*width:(r+1)*width], src[r*fullWidth+off:r*fullWidth+off+width])
	}
}

// Forward implements module.Layer: tiles execute sequentially, each fetched
// and released through the engine hooks before the next begins.
//
//zinf:hotpath
func (tl *TiledLinear) Forward(rt *module.Runtime, x *tensor.Tensor) *tensor.Tensor {
	rows := x.Len() / tl.In
	// The tile loop fills every column band, so uninit is safe.
	y := rt.NewMatrixUninit(rows, tl.Out)
	yd := y.Float32s()
	for t, tile := range tl.tiles {
		yt := rt.Forward(tile, x)
		copyBand(yd, yt.Float32s(), rows, tl.Out, t*tl.TileOut, tl.TileOut)
	}
	return y
}

// Backward implements module.Layer.
//
//zinf:hotpath
func (tl *TiledLinear) Backward(rt *module.Runtime, dy *tensor.Tensor) *tensor.Tensor {
	rows := dy.Len() / tl.Out
	dyd := dy.Float32s()
	var dx *tensor.Tensor
	// Reverse order mirrors autograd; addition is commutative so any order
	// gives the same dx, but reverse matches the saved-activation LIFO.
	for t := tl.Tiles - 1; t >= 0; t-- {
		tile := tl.tiles[t]
		dyt := rt.NewMatrixUninit(rows, tl.TileOut)
		sliceBand(dyt.Float32s(), dyd, rows, tl.Out, t*tl.TileOut, tl.TileOut)
		dxt := rt.Backward(tile, dyt)
		if dx == nil {
			dx = dxt
		} else {
			rt.Backend().Axpy(1, dxt.Float32s(), dx.Float32s())
		}
	}
	return dx
}

// FlopsPerRow returns the forward multiply-add flops per input row, equal to
// the dense operator's 2·In·Out (tiling moves memory, not compute).
func (tl *TiledLinear) FlopsPerRow() int64 { return 2 * int64(tl.In) * int64(tl.Out) }

// LoadDense installs the dense [in, out] weight matrix w (and [out] bias b,
// ignored when the layer has no bias) by slicing it into the column tiles.
// After LoadDense the tiled operator computes the same function — bit for
// bit in the forward direction — as a dense Linear holding w and b.
func (tl *TiledLinear) LoadDense(w, b []float32) {
	if len(w) != tl.In*tl.Out {
		panic(fmt.Sprintf("model: LoadDense weight len %d != %d", len(w), tl.In*tl.Out))
	}
	for t, tile := range tl.tiles {
		off := t * tl.TileOut
		tw := make([]float32, tl.In*tl.TileOut)
		for i := 0; i < tl.In; i++ {
			copy(tw[i*tl.TileOut:(i+1)*tl.TileOut], w[i*tl.Out+off:i*tl.Out+off+tl.TileOut])
		}
		tile.W.SetData(tw)
		if tile.B != nil {
			if len(b) != tl.Out {
				panic(fmt.Sprintf("model: LoadDense bias len %d != %d", len(b), tl.Out))
			}
			tile.B.SetData(append([]float32(nil), b[off:off+tl.TileOut]...))
		}
	}
}

// AssembleDense concatenates the tile weights into the equivalent dense
// [in, out] weight matrix and [out] bias (for equivalence testing).
func (tl *TiledLinear) AssembleDense() (w, b []float32) {
	w = make([]float32, tl.In*tl.Out)
	hasBias := tl.tiles[0].B != nil
	if hasBias {
		b = make([]float32, tl.Out)
	}
	for t, tile := range tl.tiles {
		tw := tile.W.Data()
		off := t * tl.TileOut
		for i := 0; i < tl.In; i++ {
			copy(w[i*tl.Out+off:i*tl.Out+off+tl.TileOut], tw[i*tl.TileOut:(i+1)*tl.TileOut])
		}
		if hasBias {
			copy(b[off:off+tl.TileOut], tile.B.Data())
		}
	}
	return w, b
}

var (
	_ module.Layer = (*TiledLinear)(nil)
	_ Projection   = (*TiledLinear)(nil)
	_ Projection   = (*Linear)(nil)
)
