package comm

import (
	"testing"

	"repro/internal/tensor"
)

// AllGatherHalfDecode must deliver, on every rank, every rank's shard
// concatenated in rank order and decoded (the decode is an exact LUT, so
// equality is exact float32 bits).
func TestAllGatherHalfDecodeMatchesLocalOracle(t *testing.T) {
	const ranks, n = 4, 37
	got := make([][]float32, ranks)
	Run(ranks, func(c *Comm) {
		dst := make([]float32, ranks*n)
		c.AllGatherHalfDecode(dst, randHalves(uint64(31+c.Rank()), n))
		got[c.Rank()] = dst
	})
	var gathered []tensor.Half
	for r := 0; r < ranks; r++ {
		gathered = append(gathered, randHalves(uint64(31+r), n)...)
	}
	want := make([]float32, ranks*n)
	tensor.DecodeHalf(want, gathered)
	for r := 0; r < ranks; r++ {
		for i := range want {
			if got[r][i] != want[i] {
				t.Fatalf("rank %d elem %d: %g != oracle %g", r, i, got[r][i], want[i])
			}
		}
	}
}

// The async fused allgather+decode must match its synchronous form.
func TestAllGatherHalfDecodeAsyncMatchesSync(t *testing.T) {
	const ranks, n = 4, 33
	syncOut := make([][]float32, ranks)
	asyncOut := make([][]float32, ranks)
	Run(ranks, func(c *Comm) {
		src := randHalves(uint64(61+c.Rank()), n)
		dst := make([]float32, ranks*n)
		c.AllGatherHalfDecode(dst, src)
		syncOut[c.Rank()] = dst
	})
	Run(ranks, func(c *Comm) {
		src := randHalves(uint64(61+c.Rank()), n)
		dst := make([]float32, ranks*n)
		tk := c.AllGatherHalfDecodeAsync(dst, src)
		tk.Wait()
		asyncOut[c.Rank()] = dst
	})
	for r := 0; r < ranks; r++ {
		for i := range syncOut[r] {
			if syncOut[r][i] != asyncOut[r][i] {
				t.Fatalf("rank %d elem %d: async %g != sync %g", r, i, asyncOut[r][i], syncOut[r][i])
			}
		}
	}
}

// The gather accounts the fp16 bytes its links carry — decoding at the
// destination is free on the wire: on one node, a ring of p edges each
// carrying the other p-1 ranks' n-element binary16 shards.
func TestAllGatherHalfDecodeAccountsHalfBytes(t *testing.T) {
	const ranks, n = 4, 64
	var got int64
	newTestWorld(t, ranks, testTopo(ranks)).Run(func(c *Comm) {
		dst := make([]float32, ranks*n)
		c.AllGatherHalfDecode(dst, randHalves(uint64(c.Rank()), n))
		if c.Rank() == 0 {
			got = c.Traffic()["allgatherhalfdecode"].Bytes()
		}
	})
	if want := int64(ranks * (ranks - 1) * n * 2); got != want {
		t.Fatalf("gather accounted %d bytes, want %d (fp16 shards)", got, want)
	}
}

// The engine steady state runs the gather every step, so a warm collective
// must not allocate — with and without a topology installed.
func TestAllGatherHalfDecodeAllocFree(t *testing.T) {
	for _, topo := range []*Topology{nil, testTopo(1)} {
		c := newTestWorld(t, 1, topo).Comm(0)
		src := randHalves(1, 64)
		dst := make([]float32, 64)
		c.AllGatherHalfDecode(dst, src) // warm the op pool and arenas
		allocs := testing.AllocsPerRun(100, func() {
			c.AllGatherHalfDecode(dst, src)
		})
		if allocs != 0 {
			t.Fatalf("allgatherhalfdecode (topo=%v) allocated %.1f/op", topo != nil, allocs)
		}
	}
}
