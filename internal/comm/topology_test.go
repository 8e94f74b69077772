package comm

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/tensor"
)

// runTopo is the SPMD entry point over a world built on the given topology
// (nil topo = flat, same as Run).
func runTopo(t *testing.T, size int, topo *Topology, fn func(c *Comm)) {
	t.Helper()
	newTestWorld(t, size, topo).Run(fn)
}

func testTopo(nodeSize int) *Topology {
	return &Topology{NodeSize: nodeSize, IntraGBps: 100, InterGBps: 10}
}

func TestParseTopology(t *testing.T) {
	if topo, err := ParseTopology(""); err != nil || topo != nil {
		t.Fatalf("empty spec: %v %v", topo, err)
	}
	topo, err := ParseTopology("2x4:intra=200:inter=25")
	if err != nil {
		t.Fatal(err)
	}
	if topo.Nodes != 2 || topo.NodeSize != 4 || topo.IntraGBps != 200 || topo.InterGBps != 25 {
		t.Fatalf("parsed %+v", topo)
	}
	if !strings.Contains(topo.String(), "2x4") {
		t.Fatalf("String() = %q", topo.String())
	}
	defaulted, err := ParseTopology("4x2")
	if err != nil {
		t.Fatal(err)
	}
	if defaulted.IntraGBps != DefaultIntraGBps || defaulted.InterGBps != DefaultInterGBps {
		t.Fatalf("defaults not applied: %+v", defaulted)
	}
	for _, bad := range []string{"x", "2", "0x4", "2x0", "2x2:wat=3", "2x2:intra=abc", "2x2:intra", "2x2:inter=0", "2x2:intra=0"} {
		if _, err := ParseTopology(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// collectiveOutputs runs every collective once synchronously, then every
// collective that has an async form once more through it, on a world with
// the given topology. It returns each rank's observed outputs keyed by
// collective name, and the world's traffic.
func collectiveOutputs(t *testing.T, ranks int, topo *Topology) (map[string][][]float32, map[string]TrafficStats) {
	t.Helper()
	const n = 24 // divisible by ranks
	out := make(map[string][][]float32)
	var traffic map[string]TrafficStats
	var mu sync.Mutex
	put := func(name string, rank int, v []float32) {
		mu.Lock()
		if out[name] == nil {
			out[name] = make([][]float32, ranks)
		}
		out[name][rank] = v
		mu.Unlock()
	}
	runTopo(t, ranks, topo, func(c *Comm) {
		r := c.Rank()
		// The four collectives with both forms: sync, or all issued before
		// any is waited.
		dual := func(suffix string, salt uint64, async bool) {
			bcRoot, redRoot := 1%ranks, ranks-1
			hb := randHalves(55+salt, n)
			if r != bcRoot {
				hb = make([]tensor.Half, n)
			}
			agSrc, agDst := randHalves(300+salt+uint64(r), n/ranks), make([]float32, n)
			rsSrc, rsDst := randHalves(700+salt+uint64(r), n), make([]float32, n/ranks)
			rhSrc := randHalves(1100+salt+uint64(r), n)
			var rhDst []float32
			if r == redRoot {
				rhDst = make([]float32, n)
			}
			if async {
				t1 := c.BroadcastHalfAsync(hb, bcRoot)
				t2 := c.AllGatherHalfDecodeAsync(agDst, agSrc)
				t3 := c.ReduceScatterHalfDecodeAsync(rsDst, rsSrc)
				t4 := c.ReduceHalfDecodeAsync(rhDst, rhSrc, redRoot)
				t1.Wait()
				t2.Wait()
				t3.Wait()
				t4.Wait()
			} else {
				c.BroadcastHalf(hb, bcRoot)
				c.AllGatherHalfDecode(agDst, agSrc)
				c.ReduceScatterHalfDecode(rsDst, rsSrc)
				c.ReduceHalfDecode(rhDst, rhSrc, redRoot)
			}
			put("broadcasthalf"+suffix, r, halfToF32(hb))
			put("allgatherhalfdecode"+suffix, r, agDst)
			put("reducescatterhalfdecode"+suffix, r, rsDst)
			put("reducehalfdecode"+suffix, r, rhDst)
		}
		dual("", 0, false)

		fdst := make([]tensor.Half, n)
		c.AllGatherEncodeHalf(fdst, randFloats(uint64(400+r), n/ranks))
		put("allgatherencodehalf", r, halfToF32(fdst))

		arh := randHalves(uint64(900+r), n)
		c.AllReduceHalf(arh)
		put("allreducehalf", r, halfToF32(arh))

		s := c.AllReduceScalar(float64(r) + 0.25)
		m := c.AllReduceMax(float64(r) * 1.5)
		put("scalars", r, []float32{float32(s), float32(m)})

		dual("/async", 5000, true)

		c.AllReduceScalar(0) // every rank's last collective is accounted before the snapshot
		if r == 0 {
			traffic = c.Traffic()
		}
	})
	return out, traffic
}

func halfToF32(h []tensor.Half) []float32 {
	f := make([]float32, len(h))
	tensor.DecodeHalf(f, h)
	return f
}

// A topology never changes bytes, only TrafficStats: every collective,
// synchronous and asynchronous, delivers on every topology exactly what it
// delivers on the flat single-node fabric, while the accounting does tell the fabrics apart
// (simulated time exists only under a topology, and which link class the
// bytes are charged to follows the node grouping).
func TestTopologyNeverChangesBytesOnlyTraffic(t *testing.T) {
	const ranks = 4
	flat, flatTraffic := collectiveOutputs(t, ranks, nil)
	for name, st := range flatTraffic {
		if st.Seconds != 0 || st.InterBytes != 0 {
			t.Errorf("flat fabric: %s charged %gs and %d inter-node bytes", name, st.Seconds, st.InterBytes)
		}
	}
	for _, tc := range []struct {
		name      string
		topo      *Topology
		wantInter bool // ranks span nodes: some bytes must be charged inter-node
	}{
		{"2x2", testTopo(2), true},
		{"4x1", testTopo(1), true},
		{"1x4", testTopo(4), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, traffic := collectiveOutputs(t, ranks, tc.topo)
			for name, flatRanks := range flat {
				gotRanks := got[name]
				if gotRanks == nil {
					t.Fatalf("%s: missing outputs", name)
				}
				for r := range flatRanks {
					if len(flatRanks[r]) != len(gotRanks[r]) {
						t.Fatalf("%s rank %d: len %d vs %d", name, r, len(flatRanks[r]), len(gotRanks[r]))
					}
					for i := range flatRanks[r] {
						if flatRanks[r][i] != gotRanks[r][i] {
							t.Fatalf("%s rank %d elem %d: flat %g vs topo %g", name, r, i, flatRanks[r][i], gotRanks[r][i])
						}
					}
				}
			}
			for name, st := range traffic {
				if st.Ops != flatTraffic[name].Ops {
					t.Errorf("%s: %d ops, flat fabric ran %d", name, st.Ops, flatTraffic[name].Ops)
				}
				if st.Seconds <= 0 {
					t.Errorf("%s: no simulated time under a topology", name)
				}
				if (st.InterBytes > 0) != tc.wantInter {
					t.Errorf("%s: %d inter-node bytes, want some: %v", name, st.InterBytes, tc.wantInter)
				}
			}
		})
	}
}

// The per-element sum delivered by ReduceHalfDecode (owner-rank strategy)
// must equal the concatenated shards of ReduceScatterHalfDecode (1/dp
// slicing) — the property that makes the two partitioning strategies train
// bit-identically.
func TestReduceHalfDecodeMatchesShardedSum(t *testing.T) {
	const ranks, n = 4, 32
	var rootSum []float32
	shards := make([][]float32, ranks)
	Run(ranks, func(c *Comm) {
		src := randHalves(uint64(5+c.Rank()), n)
		var dst []float32
		if c.Rank() == 0 {
			dst = make([]float32, n)
		}
		c.ReduceHalfDecode(dst, src, 0)
		if c.Rank() == 0 {
			rootSum = dst
		}
	})
	Run(ranks, func(c *Comm) {
		src := randHalves(uint64(5+c.Rank()), n)
		dst := make([]float32, n/ranks)
		c.ReduceScatterHalfDecode(dst, src)
		shards[c.Rank()] = dst
	})
	for r := 0; r < ranks; r++ {
		for i, v := range shards[r] {
			if rootSum[r*(n/ranks)+i] != v {
				t.Fatalf("elem %d: reduce-to-root %g vs sharded %g", r*(n/ranks)+i, rootSum[r*(n/ranks)+i], v)
			}
		}
	}
}

// The Fig. 6c property at the fabric level: gathering a full vector via the
// all-links allgather (1/dp slicing) achieves higher aggregate bandwidth —
// and less simulated time — than an owner-rank broadcast of the same bytes
// on a multi-node topology.
func TestSlicedGatherBeatsOwnerBroadcastBandwidth(t *testing.T) {
	const ranks, full = 8, 1 << 12
	topo := &Topology{NodeSize: 2, IntraGBps: 100, InterGBps: 10}
	var ag, bc TrafficStats
	runTopo(t, ranks, topo, func(c *Comm) {
		src := randHalves(uint64(c.Rank()), full/ranks)
		dst := make([]float32, full)
		for i := 0; i < 8; i++ {
			c.AllGatherHalfDecode(dst, src)
		}
		if c.Rank() == 0 {
			ag = c.Traffic()["allgatherhalfdecode"]
		}
	})
	runTopo(t, ranks, topo, func(c *Comm) {
		buf := randHalves(3, full)
		for i := 0; i < 8; i++ {
			c.BroadcastHalf(buf, 0)
		}
		if c.Rank() == 0 {
			bc = c.Traffic()["broadcasthalf"]
		}
	})
	if ag.Ops != 8 || bc.Ops != 8 {
		t.Fatalf("ops: allgather %d, broadcast %d", ag.Ops, bc.Ops)
	}
	if ag.Seconds <= 0 || bc.Seconds <= 0 {
		t.Fatalf("no simulated time: %v %v", ag.Seconds, bc.Seconds)
	}
	if ag.AggGBps() <= bc.AggGBps() {
		t.Fatalf("sliced allgather %.2f GB/s not above owner broadcast %.2f GB/s",
			ag.AggGBps(), bc.AggGBps())
	}
	if ag.Seconds >= bc.Seconds {
		t.Fatalf("sliced allgather %.3gs not faster than owner broadcast %.3gs", ag.Seconds, bc.Seconds)
	}
}

// Traffic accounting without a topology still counts ops and bytes (the
// byte flow is well defined on the flat fabric; only timing needs links).
func TestTrafficCountsWithoutTopology(t *testing.T) {
	const ranks, n = 4, 16
	var tr map[string]TrafficStats
	var tot TrafficStats
	Run(ranks, func(c *Comm) {
		src := randHalves(uint64(c.Rank()), n/ranks)
		dst := make([]float32, n)
		c.AllGatherHalfDecode(dst, src)
		c.AllReduceScalar(0)
		if c.Rank() == 0 {
			tr = c.Traffic()
			tot = c.TrafficTotal()
		}
	})
	ag := tr["allgatherhalfdecode"]
	if ag.Ops != 1 || ag.Bytes() == 0 {
		t.Fatalf("allgatherhalfdecode traffic %+v", ag)
	}
	if ag.Seconds != 0 {
		t.Fatalf("flat fabric charged time: %v", ag.Seconds)
	}
	if tot.Ops < 2 {
		t.Fatalf("total ops %d", tot.Ops)
	}
}

// Equivalent fabrics must count the same bytes: a 4-rank allgather ring
// with no topology, on a single-node "1x4" topology, and on a "4x1"
// topology (every rank its own node: the hierarchical phases degenerate to
// the same inter ring) all move identical totals.
func TestDegenerateTopologiesCountSameBytes(t *testing.T) {
	const ranks, n = 4, 16
	measure := func(topo *Topology) int64 {
		var b int64
		runTopo(t, ranks, topo, func(c *Comm) {
			src := randHalves(uint64(c.Rank()), n/ranks)
			dst := make([]float32, n)
			c.AllGatherHalfDecode(dst, src)
			if c.Rank() == 0 {
				b = c.Traffic()["allgatherhalfdecode"].Bytes()
			}
		})
		return b
	}
	flat := measure(nil)
	oneNode := measure(testTopo(ranks))
	perRank := measure(testTopo(1))
	// p ring edges each carrying (p-1) chunks of n/ranks halves.
	want := int64(ranks * (ranks - 1) * (n / ranks) * 2)
	if flat != want || oneNode != want || perRank != want {
		t.Fatalf("byte totals diverge: flat %d, 1x%d %d, %dx1 %d, want %d",
			flat, ranks, oneNode, ranks, perRank, want)
	}
}

// Accounting must not allocate: the steady-state zero-allocation contract
// holds with a topology installed (solo worlds exercise the same account()
// path as the multi-rank rendezvous).
func TestTopologyAccountingAllocFree(t *testing.T) {
	c := newTestWorld(t, 1, &Topology{NodeSize: 1}).Comm(0)
	src := randHalves(1, 64)
	dst := make([]float32, 64)
	c.AllGatherHalfDecode(dst, src) // warm the op pool
	allocs := testing.AllocsPerRun(100, func() {
		c.AllGatherHalfDecode(dst, src)
	})
	if allocs != 0 {
		t.Fatalf("allgatherhalfdecode with topology allocated %.1f/op", allocs)
	}
}
