package comm

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// newTestWorld builds an in-memory world of size ranks on the given topology
// (nil = flat).
func newTestWorld(t testing.TB, size int, topo *Topology) *World {
	t.Helper()
	w, err := New(WorldOptions{Size: size, Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// A scalar all-reduce is the world's barrier: no rank returns before every
// rank has entered.
func TestScalarAllReduceIsABarrier(t *testing.T) {
	const n = 8
	var mu sync.Mutex
	entered := 0
	Run(n, func(c *Comm) {
		mu.Lock()
		entered++
		mu.Unlock()
		c.AllReduceScalar(0)
		mu.Lock()
		defer mu.Unlock()
		if entered != n {
			t.Errorf("rank %d passed the all-reduce with only %d entered", c.Rank(), entered)
		}
	})
}

func TestBroadcastHalf(t *testing.T) {
	Run(3, func(c *Comm) {
		buf := make([]tensor.Half, 2)
		if c.Rank() == 0 {
			buf[0], buf[1] = 0x3c00, 0x4000
		}
		c.BroadcastHalf(buf, 0)
		if buf[0] != 0x3c00 || buf[1] != 0x4000 {
			t.Errorf("rank %d got %v", c.Rank(), buf)
		}
	})
}

func TestReduceScatterHalfDecodeAccumulatesFP32(t *testing.T) {
	const n = 4
	Run(n, func(c *Comm) {
		// Each rank contributes 1.0 in fp16 for every element; fp32
		// accumulation makes the sum exactly n.
		src := make([]tensor.Half, n*2)
		one := tensor.HalfFromFloat32(1)
		for i := range src {
			src[i] = one
		}
		dst := make([]float32, 2)
		c.ReduceScatterHalfDecode(dst, src)
		for i, v := range dst {
			if v != float32(n) {
				t.Errorf("rank %d shard[%d] = %g, want %d", c.Rank(), i, v, n)
			}
		}
	})
}

// The defining identity: reduce-scatter followed by allgather equals
// allreduce. ZeRO relies on this to be a drop-in for DDP's allreduce: the
// fp16 gradient all-reduce must deliver, element for element, what the
// reduce-scatter's owners hold and would gather back.
func TestReduceScatterPlusAllGatherEqualsAllReduce(t *testing.T) {
	const n = 4
	const per = 3
	total := n * per
	want := make([][]tensor.Half, n)
	got := make([][]tensor.Half, n)
	Run(n, func(c *Comm) {
		r := c.Rank()
		a := randHalves(uint64(99+r), total)
		c.AllReduceHalf(a)
		want[r] = a

		shard := make([]float32, per)
		c.ReduceScatterHalfDecode(shard, randHalves(uint64(99+r), total))
		full := make([]tensor.Half, total)
		c.AllGatherEncodeHalf(full, shard)
		got[r] = full
	})
	for r := 0; r < n; r++ {
		for i := 0; i < total; i++ {
			if want[r][i] != got[r][i] {
				t.Fatalf("rank %d elem %d: allreduce %#04x, rs+ag %#04x", r, i, want[r][i], got[r][i])
			}
		}
	}
}

func TestScalarCollectives(t *testing.T) {
	const n = 5
	Run(n, func(c *Comm) {
		s := c.AllReduceScalar(float64(c.Rank() + 1))
		if s != 15 {
			t.Errorf("rank %d scalar sum = %g, want 15", c.Rank(), s)
		}
		m := c.AllReduceMax(float64(c.Rank()))
		if m != n-1 {
			t.Errorf("rank %d scalar max = %g, want %d", c.Rank(), m, n-1)
		}
	})
}

func TestWorldSizeOne(t *testing.T) {
	Run(1, func(c *Comm) {
		buf := []tensor.Half{0x4200} // 3
		c.AllReduceHalf(buf)
		if buf[0] != 0x4200 {
			t.Errorf("size-1 allreducehalf changed value: %#04x", buf[0])
		}
		dst := make([]float32, 1)
		c.ReduceScatterHalfDecode(dst, []tensor.Half{0x4500}) // 5
		if dst[0] != 5 {
			t.Errorf("size-1 reducescatterhalfdecode = %g", dst[0])
		}
		full := make([]float32, 1)
		c.AllGatherHalfDecode(full, []tensor.Half{0x4700}) // 7
		if full[0] != 7 {
			t.Errorf("size-1 allgatherhalfdecode = %g", full[0])
		}
		if s := c.AllReduceScalar(2.5); s != 2.5 {
			t.Errorf("size-1 scalar sum = %g", s)
		}
	})
}

func TestManySequentialCollectivesNoLeak(t *testing.T) {
	w := newTestWorld(t, 3, nil)
	w.Run(func(c *Comm) {
		buf := []tensor.Half{0x3c00}
		for i := 0; i < 200; i++ {
			c.AllReduceHalf(buf)
			buf[0] = 0x3c00
		}
	})
	mt := w.t.(*memTransport)
	mt.mu.Lock()
	defer mt.mu.Unlock()
	if len(mt.ops) != 0 {
		t.Errorf("op registry leaked %d entries", len(mt.ops))
	}
}

func TestCommPanicsOnBadRank(t *testing.T) {
	w := newTestWorld(t, 2, nil)
	defer func() {
		if recover() == nil {
			t.Error("Comm(5) did not panic")
		}
	}()
	w.Comm(5)
}

func TestShardRoundTrip(t *testing.T) {
	f := func(seed uint64, n8, size8 uint8) bool {
		n := int(n8%50) + 1
		size := int(size8%8) + 1
		src := make([]float32, n)
		tensor.NewRNG(seed).FillNormal(src, 1)
		dst := make([]float32, n)
		shard := make([]float32, ShardLen(n, size))
		for r := 0; r < size; r++ {
			Shard(shard, src, r, size)
			Unshard(dst, shard, r, size)
		}
		for i := range src {
			if dst[i] != src[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPaddedLen(t *testing.T) {
	cases := []struct{ n, size, want int }{
		{0, 4, 0}, {1, 4, 4}, {4, 4, 4}, {5, 4, 8}, {10, 1, 10},
	}
	for _, c := range cases {
		if got := PaddedLen(c.n, c.size); got != c.want {
			t.Errorf("PaddedLen(%d,%d) = %d, want %d", c.n, c.size, got, c.want)
		}
	}
}

func BenchmarkAllReduceHalf8Ranks(b *testing.B) {
	const n = 8
	const elems = 1 << 12
	w := newTestWorld(b, n, nil)
	b.SetBytes(int64(n * elems * 2))
	b.ResetTimer()
	w.Run(func(c *Comm) {
		buf := make([]tensor.Half, elems)
		for i := 0; i < b.N; i++ {
			c.AllReduceHalf(buf)
		}
	})
}
