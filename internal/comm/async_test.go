package comm

import (
	"sync"
	"testing"

	"repro/internal/tensor"
)

func randHalves(seed uint64, n int) []tensor.Half {
	f := make([]float32, n)
	tensor.NewRNG(seed).FillNormal(f, 1)
	h := make([]tensor.Half, n)
	tensor.EncodeHalf(h, f)
	return h
}

// Multiple async collectives may be in flight at once, interleaved with
// synchronous collectives issued after them, and waited out of order — the
// exact shape the overlap engines rely on (issue gathers k ahead, drain
// reduce-scatters at a later barrier).
func TestAsyncPipelineInterleavedWithSync(t *testing.T) {
	const ranks, n, depth = 4, 16, 3
	var mu sync.Mutex
	results := map[int][][]float32{}
	Run(ranks, func(c *Comm) {
		dsts := make([][]float32, depth)
		tickets := make([]Ticket, depth)
		for k := 0; k < depth; k++ {
			dsts[k] = make([]float32, ranks*n)
			tickets[k] = c.AllGatherHalfDecodeAsync(dsts[k], randHalves(uint64(1000+10*k+c.Rank()), n))
		}
		// A synchronous collective issued while three asyncs are in flight.
		sum := c.AllReduceScalar(float64(c.Rank()))
		if sum != float64(ranks*(ranks-1)/2) {
			t.Errorf("allreduce during async flight = %g", sum)
		}
		// Wait in reverse issue order.
		for k := depth - 1; k >= 0; k-- {
			tickets[k].Wait()
		}
		mu.Lock()
		results[c.Rank()] = dsts
		mu.Unlock()
	})
	// Every rank sees the same gathered buffers: the shards in rank order.
	for k := 0; k < depth; k++ {
		var want []float32
		for r := 0; r < ranks; r++ {
			want = append(want, halfToF32(randHalves(uint64(1000+10*k+r), n))...)
		}
		for r := 0; r < ranks; r++ {
			got := results[r][k]
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("slot %d rank %d elem %d: %v != %v", k, r, i, got[i], want[i])
				}
			}
		}
	}
}

// Size-1 worlds complete async collectives at issue.
func TestAsyncSingleRank(t *testing.T) {
	Run(1, func(c *Comm) {
		src := randHalves(3, 8)
		dst := make([]float32, 8)
		tk := c.AllGatherHalfDecodeAsync(dst, src)
		tk.Wait()
		for i := range src {
			if dst[i] != src[i].Float32() {
				t.Fatalf("elem %d: %v != %v", i, dst[i], src[i].Float32())
			}
		}
		rs := make([]float32, 8)
		rsTk := c.ReduceScatterHalfDecodeAsync(rs, src)
		rsTk.Wait()
	})
}

// A double Wait on the same ticket must not hang or panic (drain paths may
// conservatively re-wait).
func TestTicketWaitIdempotent(t *testing.T) {
	Run(2, func(c *Comm) {
		src := randHalves(uint64(c.Rank()), 4)
		dst := make([]float32, 8)
		tk := c.AllGatherHalfDecodeAsync(dst, src)
		tk.Wait()
		tk.Wait()
	})
}
