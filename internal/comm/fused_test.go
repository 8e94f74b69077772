package comm

import (
	"testing"

	"repro/internal/tensor"
)

func randFloats(seed uint64, n int) []float32 {
	f := make([]float32, n)
	tensor.NewRNG(seed).FillNormal(f, 1)
	return f
}

// reduceOracle is the half reductions' reference, computed here rather than
// by any collective: elements [at, at+n) of the rank-order fp32 sum of srcs,
// rounded to binary16.
func reduceOracle(srcs [][]tensor.Half, at, n int) []tensor.Half {
	out := make([]tensor.Half, n)
	for i := range out {
		var acc float32
		for _, src := range srcs {
			acc += src[at+i].Float32()
		}
		out[i] = tensor.HalfFromFloat32(acc)
	}
	return out
}

// AllGatherEncodeHalf must deliver, on every rank, each rank's shard encoded
// to binary16 and concatenated in rank order.
func TestAllGatherEncodeHalfMatchesLocalOracle(t *testing.T) {
	const ranks, n = 4, 37
	got := make([][]tensor.Half, ranks)
	Run(ranks, func(c *Comm) {
		dst := make([]tensor.Half, ranks*n)
		c.AllGatherEncodeHalf(dst, randFloats(uint64(50+c.Rank()), n))
		got[c.Rank()] = dst
	})
	want := make([]tensor.Half, ranks*n)
	for r := 0; r < ranks; r++ {
		tensor.EncodeHalf(want[r*n:(r+1)*n], randFloats(uint64(50+r), n))
	}
	for r := 0; r < ranks; r++ {
		for i := range want {
			if got[r][i] != want[i] {
				t.Fatalf("rank %d elem %d: %#04x != oracle %#04x", r, i, got[r][i], want[i])
			}
		}
	}
}

// ReduceScatterHalfDecode must deliver rank r's shard of the rank-order fp32
// sum, rounded through binary16 — including that rounding — as float32.
func TestReduceScatterHalfDecodeMatchesLocalOracle(t *testing.T) {
	const ranks, n = 4, 24
	got := make([][]float32, ranks)
	srcs := make([][]tensor.Half, ranks)
	for r := range srcs {
		srcs[r] = randHalves(uint64(9+r), n)
	}
	Run(ranks, func(c *Comm) {
		dst := make([]float32, n/ranks)
		c.ReduceScatterHalfDecode(dst, srcs[c.Rank()])
		got[c.Rank()] = dst
	})
	for r := 0; r < ranks; r++ {
		want := halfToF32(reduceOracle(srcs, r*(n/ranks), n/ranks))
		for i := range want {
			if got[r][i] != want[i] {
				t.Fatalf("rank %d elem %d: %g != oracle %g", r, i, got[r][i], want[i])
			}
		}
	}
}

// AllReduceHalf must leave the whole rank-order fp32 sum, rounded to
// binary16, in every rank's buffer.
func TestAllReduceHalfMatchesLocalOracle(t *testing.T) {
	const ranks, n = 4, 19 // not a multiple of ranks
	got := make([][]tensor.Half, ranks)
	srcs := make([][]tensor.Half, ranks)
	for r := range srcs {
		srcs[r] = randHalves(uint64(70+r), n)
	}
	Run(ranks, func(c *Comm) {
		buf := randHalves(uint64(70+c.Rank()), n)
		c.AllReduceHalf(buf)
		got[c.Rank()] = buf
	})
	want := reduceOracle(srcs, 0, n)
	for r := 0; r < ranks; r++ {
		for i := range want {
			if got[r][i] != want[i] {
				t.Fatalf("rank %d elem %d: %#04x != oracle %#04x", r, i, got[r][i], want[i])
			}
		}
	}
}

// The async fused reduce-scatter+decode must match its synchronous form.
func TestReduceScatterHalfDecodeAsyncMatchesSync(t *testing.T) {
	const ranks, n = 4, 16
	syncOut := make([][]float32, ranks)
	asyncOut := make([][]float32, ranks)
	Run(ranks, func(c *Comm) {
		src := randHalves(uint64(77+c.Rank()), n)
		dst := make([]float32, n/ranks)
		c.ReduceScatterHalfDecode(dst, src)
		syncOut[c.Rank()] = dst
	})
	Run(ranks, func(c *Comm) {
		src := randHalves(uint64(77+c.Rank()), n)
		dst := make([]float32, n/ranks)
		tk := c.ReduceScatterHalfDecodeAsync(dst, src)
		tk.Wait()
		asyncOut[c.Rank()] = dst
	})
	for r := 0; r < ranks; r++ {
		for i := range syncOut[r] {
			if syncOut[r][i] != asyncOut[r][i] {
				t.Fatalf("rank %d elem %d: sync %g != async %g", r, i, syncOut[r][i], asyncOut[r][i])
			}
		}
	}
}

// Single-rank worlds must run the fused paths inline.
func TestFusedSingleRank(t *testing.T) {
	Run(1, func(c *Comm) {
		src := randFloats(3, 8)
		dst := make([]tensor.Half, 8)
		c.AllGatherEncodeHalf(dst, src)
		want := make([]tensor.Half, 8)
		tensor.EncodeHalf(want, src)
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("elem %d: %#04x != %#04x", i, dst[i], want[i])
			}
		}
		hs := randHalves(4, 8)
		out := make([]float32, 8)
		c.ReduceScatterHalfDecode(out, hs)
		for i := range hs {
			rt := tensor.Float32FromHalf(tensor.HalfFromFloat32(hs[i].Float32()))
			if out[i] != rt {
				t.Fatalf("elem %d: %g != round-trip %g", i, out[i], rt)
			}
		}
	})
}

// A reduce-scatter destination accumulates in its own float32 dst, which no
// other rank reads: it draws one float32 buffer (the decode scratch) from
// the comm arena, not an accumulator as well, so concurrent destinations do
// not double the arena's high-water mark. It still delivers the oracle's
// rounded sum.
func TestReduceScatterDestinationTakesOneFloatBuffer(t *testing.T) {
	const ranks, n, me = 4, 24, 2
	w := newCollCtx(ranks)
	if err := w.configure(tensor.DefaultBackend(nil), nil); err != nil {
		t.Fatal(err)
	}
	srcs := make([][]tensor.Half, ranks)
	d := make([]payload, ranks)
	for r := range d {
		srcs[r] = randHalves(uint64(70+r), ranks*n)
		d[r].hsrc, _ = w.part(opReduceScatterHalfDecode, 0, r, me, payload{hsrc: srcs[r]})
	}
	dst := make([]float32, n)
	before, _, _ := w.fscratch.Stats()
	w.destination(d, me, pendingOp{kind: opReduceScatterHalfDecode, pl: payload{fdst: dst, hsrc: srcs[me]}})
	if gets, _, _ := w.fscratch.Stats(); gets-before != 1 {
		t.Errorf("the destination took %d float32 buffers from the arena, want 1", gets-before)
	}
	for i, h := range reduceOracle(srcs, me*n, n) {
		if dst[i] != h.Float32() {
			t.Fatalf("elem %d: %v != oracle %v", i, dst[i], h.Float32())
		}
	}
}
