package comm

import (
	"math"
	"sync"
	"testing"
	"time"

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

// Size-1 worlds complete async collectives on Wait with no peer to meet.
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

// both runs fn against a 4-rank in-memory world and a 4-rank loopback
// socket world, giving up (instead of hanging the test binary) if a world
// has not finished within a minute.
func both(t *testing.T, fn func(t *testing.T, worlds []*World)) {
	const ranks = 4
	for _, transport := range []string{"mem", "sock"} {
		t.Run(transport, func(t *testing.T) {
			worlds := []*World{newTestWorld(t, ranks, nil)}
			if transport == "sock" {
				worlds = openSockWorld(t, ranks, nil)
				defer closeWorlds(worlds)
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				fn(t, worlds)
			}()
			select {
			case <-done:
			case <-time.After(time.Minute):
				t.Fatal("the world is still running after a minute: its ranks are deadlocked")
			}
		})
	}
}

// appendDst appends the bits of every destination buffer in pl to sig.
func appendDst(sig []uint64, pl payload) []uint64 {
	for _, x := range pl.fdst {
		sig = append(sig, uint64(math.Float32bits(x)))
	}
	for _, h := range pl.hdst {
		sig = append(sig, uint64(h))
	}
	return sig
}

// Ranks may wait their tickets in different orders. Every rank issues the
// same three collectives; rank r then waits them in its own permutation.
// Completing only the awaited collective would deadlock (rank 0 finishing
// the gather needs rank 1, which is blocked in the all-reduce that needs
// rank 0), so every rank completes in sequence order, and every destination
// equals the synchronous run's.
func TestRanksWaitInDifferentOrders(t *testing.T) {
	const n = 6
	orders := [][3]int{{0, 1, 2}, {2, 1, 0}, {1, 2, 0}, {2, 0, 1}}
	run := func(worlds []*World, sync bool) [][]uint64 {
		sigs := make([][]uint64, worlds[0].Size())
		runRanks(worlds, func(c *Comm) {
			r, size := c.Rank(), c.Size()
			pls := [3]payload{
				{fdst: filledF(size * n), hsrc: oracleH(r, n, 1)},
				{fdst: filledF(n), hsrc: oracleH(r, size*n, 2)},
				{hdst: oracleH(r, n+1, 3)},
			}
			var tks [3]Ticket
			for i, k := range [3]opKind{opAllGatherHalfDecode, opReduceScatterHalfDecode, opAllReduceHalf} {
				tks[i] = c.issue(k, 0, pls[i])
				if sync {
					tks[i].Wait()
				}
			}
			for _, i := range orders[r] {
				tks[i].Wait()
			}
			for _, pl := range pls {
				sigs[r] = appendDst(sigs[r], pl)
			}
		})
		return sigs
	}
	want := run([]*World{newTestWorld(t, len(orders), nil)}, true)
	both(t, func(t *testing.T, worlds []*World) {
		got := run(worlds, false)
		for r := range want {
			for i := range want[r] {
				if got[r][i] != want[r][i] {
					t.Errorf("rank %d: destination word %d is %x, synchronous run %x", r, i, got[r][i], want[r][i])
					break
				}
			}
		}
	})
}

// A rank's buffers are its own again the moment Wait returns: no peer still
// reads them. Every rank issues every collective kind, then waits each in
// turn, copies its destination out and at once scribbles over every buffer
// it passed. The copies must match a synchronous run that scribbles nothing;
// under the race detector a peer still reading would also be a reported
// race.
func TestBuffersReusableWhenWaitReturns(t *testing.T) {
	const n = 10
	run := func(worlds []*World, reuse bool) [][]uint64 {
		sigs := make([][]uint64, worlds[0].Size())
		runRanks(worlds, func(c *Comm) {
			r, size := c.Rank(), c.Size()
			var (
				pls [opKindCount]payload
				tks [opKindCount]Ticket
				res [opKindCount]float64
			)
			for k := range pls {
				root := (k + 1) % size
				pls[k], _ = oraclePayload(opKind(k), r, size, n, root)
				tks[k] = c.issue(opKind(k), root, pls[k])
				if !reuse {
					res[k] = tks[k].wait()
				}
			}
			for k := range tks {
				if reuse {
					res[k] = tks[k].wait()
				}
				sigs[r] = append(sigs[r], math.Float64bits(res[k]))
				sigs[r] = appendDst(sigs[r], pls[k])
				if reuse {
					for _, xs := range [][]float32{pls[k].fdst, pls[k].fsrc} {
						for i := range xs {
							xs[i] = sentinelF
						}
					}
					for _, hs := range [][]tensor.Half{pls[k].hdst, pls[k].hsrc} {
						for i := range hs {
							hs[i] = sentinelH
						}
					}
				}
			}
		})
		return sigs
	}
	want := run([]*World{newTestWorld(t, 4, nil)}, false)
	both(t, func(t *testing.T, worlds []*World) {
		got := run(worlds, true)
		for r := range want {
			for i := range want[r] {
				if got[r][i] != want[r][i] {
					t.Errorf("rank %d: copied-out word %d is %x, synchronous run %x", r, i, got[r][i], want[r][i])
					break
				}
			}
		}
	})
}
