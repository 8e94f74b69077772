package comm

import (
	"fmt"
	"math"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/tensor"
)

// freeAddr reserves a loopback port for a test coordinator by binding and
// immediately releasing it.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("reserving port: %v", err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// openSockWorld bootstraps size ranks over loopback TCP, each with its own
// sockTransport and World — the in-process stand-in for size separate worker
// processes. The caller closes the worlds.
func openSockWorld(t *testing.T, size int, topo *Topology) []*World {
	t.Helper()
	addr := freeAddr(t)
	worlds := make([]*World, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			tr, err := NewSockTransport(SockConfig{Rank: rank, Size: size, Coord: addr, DialTimeout: 10 * time.Second})
			if err != nil {
				errs[rank] = err
				return
			}
			if worlds[rank], err = New(WorldOptions{Size: size, Transport: tr, Topology: topo}); err != nil {
				tr.Close()
				errs[rank] = err
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			closeWorlds(worlds)
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return worlds
}

func closeWorlds(worlds []*World) {
	for _, w := range worlds {
		if w != nil {
			w.Close()
		}
	}
}

// runRanks runs fn on every rank the worlds host, each on its own goroutine
// (every rank of the one in-memory world, or each socket world's one rank).
func runRanks(worlds []*World, fn func(c *Comm)) {
	var wg sync.WaitGroup
	for _, w := range worlds {
		wg.Add(1)
		go func(w *World) {
			defer wg.Done()
			w.Run(fn)
		}(w)
	}
	wg.Wait()
}

const (
	sentinelF = float32(-777.25)
	sentinelH = tensor.Half(0xC300) // -3.5
)

// oracleF and oracleH generate order-sensitive addends: magnitudes spread
// over several binades, so an fp32 sum taken in any order but rank order
// rounds differently somewhere.
func oracleF(rank, n, salt int) []float32 {
	xs := make([]float32, n)
	for i := range xs {
		xs[i] = float32(math.Sin(float64(rank*131+i*7+salt))) * 1000 / float32(1+(i+rank)%5)
	}
	return xs
}

func oracleH(rank, n, salt int) []tensor.Half {
	hs := make([]tensor.Half, n)
	tensor.EncodeHalf(hs, oracleF(rank, n, salt))
	return hs
}

func filledF(n int) []float32 {
	xs := make([]float32, n)
	for i := range xs {
		xs[i] = sentinelF
	}
	return xs
}

func filledH(n int) []tensor.Half {
	hs := make([]tensor.Half, n)
	for i := range hs {
		hs[i] = sentinelH
	}
	return hs
}

// oraclePayload builds rank's argument to one collective of the given kind
// over unit length n. Every destination the collective may write starts as
// sentinels; destinations it must leave alone (a broadcast root's buffer, a
// rooted collective's non-root dst) are reported in keep.
func oraclePayload(kind opKind, rank, size, n, root int) (pl payload, keep bool) {
	salt := int(kind) * 17
	switch kind {
	case opBroadcastHalf:
		if rank == root {
			return payload{hdst: oracleH(rank, n, salt)}, true
		}
		return payload{hdst: filledH(n)}, false
	case opAllGatherEncodeHalf:
		return payload{hdst: filledH(size * n), fsrc: oracleF(rank, n, salt)}, false
	case opAllGatherHalfDecode:
		return payload{fdst: filledF(size * n), hsrc: oracleH(rank, n, salt)}, false
	case opReduceScatterHalfDecode:
		return payload{fdst: filledF(n), hsrc: oracleH(rank, size*n, salt)}, false
	case opAllReduceHalf:
		return payload{hdst: oracleH(rank, n, salt)}, false
	case opReduceHalfDecode:
		return payload{fdst: filledF(n), hsrc: oracleH(rank, n, salt)}, rank != root
	}
	return payload{v: math.Sin(float64(rank*7+n)) * 1e3}, false // the scalar kinds
}

// oracleModes are the three ways a rank may drive a batch of collectives.
var oracleModes = []string{"sync", "async", "reversed-wait"}

// oracleTrajectory drives one rank through every collective kind, for each
// unit length and each mode, rotating the root, and returns the bits of
// every destination and scalar it was handed. Buffers a collective must not
// write are checked here, so the check runs on both transports.
func oracleTrajectory(c *Comm, lengths []int) (sig []uint64, problems []string) {
	rank, size := c.Rank(), c.Size()
	for _, mode := range oracleModes {
		for _, n := range lengths {
			var (
				pls     [opKindCount]payload
				keep    [opKindCount]bool
				tickets [opKindCount]Ticket
			)
			rootOf := func(k opKind) int { return (int(k) + n) % size }
			for k := opKind(0); k < opKindCount; k++ {
				pls[k], keep[k] = oraclePayload(k, rank, size, n, rootOf(k))
				tk := c.issue(k, rootOf(k), pls[k])
				switch mode {
				case "sync":
					sig = append(sig, math.Float64bits(tk.wait()))
				case "async":
					tk.Wait()
				default:
					tickets[k] = tk
				}
			}
			for k := opKindCount; k > 0; k-- {
				tickets[k-1].Wait() // the zero Ticket is already complete
			}
			for k := opKind(0); k < opKindCount; k++ {
				if keep[k] {
					want, _ := oraclePayload(k, rank, size, n, rootOf(k))
					if !reflect.DeepEqual(pls[k].fdst, want.fdst) || !reflect.DeepEqual(pls[k].hdst, want.hdst) {
						problems = append(problems, fmt.Sprintf("%s n=%d %s(root %d): rank %d's buffer was written", mode, n, k, rootOf(k), rank))
					}
				}
				for _, x := range pls[k].fdst {
					sig = append(sig, uint64(math.Float32bits(x)))
				}
				for _, h := range pls[k].hdst {
					sig = append(sig, uint64(h))
				}
			}
		}
	}
	return sig, problems
}

// modeled is the part of a kind's TrafficStats that every transport must
// agree on: how many collectives ran and what the cost model charged them.
type modeled struct {
	Ops, Intra, Inter int64
	Seconds           float64
}

func modeledTraffic(c *Comm) map[string]modeled {
	out := map[string]modeled{}
	for k, st := range c.Traffic() {
		out[k] = modeled{st.Ops, st.IntraBytes, st.InterBytes, st.Seconds}
	}
	return out
}

// runOracle runs oracleTrajectory on every rank of the given worlds and
// returns per-rank signatures and modeled traffic.
func runOracle(t *testing.T, worlds []*World, lengths []int) ([][]uint64, []map[string]modeled) {
	t.Helper()
	size := worlds[0].Size()
	sigs := make([][]uint64, size)
	traffic := make([]map[string]modeled, size)
	problems := make([][]string, size)
	runRanks(worlds, func(c *Comm) {
		sigs[c.Rank()], problems[c.Rank()] = oracleTrajectory(c, lengths)
		c.AllReduceScalar(0) // every rank's last collective is accounted before any snapshot
		traffic[c.Rank()] = modeledTraffic(c)
	})
	for _, ps := range problems {
		for _, p := range ps {
			t.Error(p)
		}
	}
	return sigs, traffic
}

// assertSockMatchesMem runs the oracle trajectory over both transports and
// requires byte-equal destinations and equal modeled traffic on every rank.
func assertSockMatchesMem(t *testing.T, size int, topo *Topology, lengths []int) {
	t.Helper()
	memSig, memTraffic := runOracle(t, []*World{newTestWorld(t, size, topo)}, lengths)
	socks := openSockWorld(t, size, topo)
	defer closeWorlds(socks)
	sockSig, sockTraffic := runOracle(t, socks, lengths)
	for r := 0; r < size; r++ {
		if len(memSig[r]) != len(sockSig[r]) {
			t.Fatalf("rank %d: signature lengths differ: mem %d sock %d", r, len(memSig[r]), len(sockSig[r]))
		}
		for i := range memSig[r] {
			if memSig[r][i] != sockSig[r][i] {
				t.Fatalf("rank %d: signature[%d] differs: mem %x sock %x", r, i, memSig[r][i], sockSig[r][i])
			}
		}
		// The in-memory world keeps one set of counters; every socket rank
		// keeps its own, and each must have counted the same collectives.
		if !reflect.DeepEqual(memTraffic[0], sockTraffic[r]) {
			t.Errorf("rank %d: modeled traffic differs:\n mem  %v\n sock %v", r, memTraffic[0], sockTraffic[r])
		}
	}
}

// TestSockMatchesMemBitIdentical is the transport-neutrality contract at the
// collective level: every collective kind, at unit lengths that are and are
// not multiples of the world size (0 and 1 included), driven synchronously,
// asynchronously and with tickets awaited in reverse, delivers byte-identical
// destinations over the socket mesh and the in-memory transport, leaves the
// same buffers untouched, and counts the same collectives — on flat and
// hierarchical worlds of 1 to 8 ranks.
func TestSockMatchesMemBitIdentical(t *testing.T) {
	lengths := []int{0, 1, 5, 24}
	for _, tc := range []struct {
		size int
		topo string
	}{
		{1, ""}, {2, ""}, {3, ""}, {4, ""}, {8, ""}, {4, "2x2"}, {8, "2x4"},
	} {
		t.Run(fmt.Sprintf("ranks%d%s", tc.size, tc.topo), func(t *testing.T) {
			topo, err := ParseTopology(tc.topo)
			if err != nil {
				t.Fatal(err)
			}
			assertSockMatchesMem(t, tc.size, topo, lengths)
		})
	}
}

// TestSockByteSwapFallback forces the big-endian fallback on: senders swap
// through scratch, receivers swap in place, and the delivered bytes must not
// change.
func TestSockByteSwapFallback(t *testing.T) {
	defer func(old bool) { hostSwaps = old }(hostSwaps)
	hostSwaps = true
	assertSockMatchesMem(t, 3, nil, []int{5})
}

// TestSockTrafficPerRank: measured traffic is each rank's own. Every rank's
// bytes sent to a peer equal that peer's bytes received from it, a rank's
// intra/inter totals are its sends classified by the topology, and every
// rank has spent measurable time in the transport.
func TestSockTrafficPerRank(t *testing.T) {
	topo := &Topology{Nodes: 2, NodeSize: 2}
	worlds := openSockWorld(t, 4, topo)
	defer closeWorlds(worlds)
	totals := make([]TrafficStats, 4)
	runRanks(worlds, func(c *Comm) {
		buf := oracleH(c.Rank(), 19, 0)
		c.AllReduceHalf(buf)
		shard := make([]float32, 5)
		c.ReduceScatterHalfDecode(shard, oracleH(c.Rank(), 20, 1))
		c.BroadcastHalf(buf, 3)
		c.AllReduceScalar(0)
		totals[c.Rank()] = c.TrafficTotal()
	})
	peersOf := func(r int) []*peer { return worlds[r].t.(*sockTransport).peers }
	for a := 0; a < 4; a++ {
		var intra, inter int64
		for b, p := range peersOf(a) {
			if p == nil {
				continue
			}
			back := peersOf(b)[a]
			back.mu.Lock()
			rcvd := back.rcvd
			back.mu.Unlock()
			if p.sent == 0 || p.sent != rcvd {
				t.Errorf("rank %d sent rank %d %d bytes, which received %d", a, b, p.sent, rcvd)
			}
			if a/2 == b/2 {
				intra += p.sent
			} else {
				inter += p.sent
			}
		}
		if totals[a].MeasIntraBytes != intra || totals[a].MeasInterBytes != inter {
			t.Errorf("rank %d reports %d intra / %d inter bytes, its connections carried %d / %d",
				a, totals[a].MeasIntraBytes, totals[a].MeasInterBytes, intra, inter)
		}
		if totals[a].MeasSeconds <= 0 {
			t.Errorf("rank %d measured no time in the transport", a)
		}
	}
}

// TestSockCollectiveMismatchPanics: ranks calling different collectives at
// the same sequence number must panic, same as the in-memory transport —
// on the mesh, every rank that hears from the dissenter.
func TestSockCollectiveMismatchPanics(t *testing.T) {
	worlds := openSockWorld(t, 2, nil)
	defer closeWorlds(worlds)
	msgs := make([]string, 2)
	runRanks(worlds, func(c *Comm) {
		defer func() { msgs[c.Rank()] = fmt.Sprint(recover()) }()
		if c.Rank() == 0 {
			c.AllReduceHalf([]tensor.Half{1})
		} else {
			c.AllReduceScalar(0)
		}
	})
	for r, m := range msgs {
		if !strings.Contains(m, "collective mismatch") {
			t.Errorf("rank %d: want a collective-mismatch panic, got %q", r, m)
		}
	}
}

// TestSockCloseJoinsReaders: Close returns only after every reader goroutine
// has exited, so a closed world leaves no goroutine behind.
func TestSockCloseJoinsReaders(t *testing.T) {
	before := runtime.NumGoroutine()
	worlds := openSockWorld(t, 4, nil) // 12 reader goroutines
	runRanks(worlds, func(c *Comm) { c.AllReduceScalar(0) })
	closeWorlds(worlds)
	// Close waited for each reader's deferred Done; give the last few the
	// instant between that call and their exit.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("goroutines before the world %d, after closing it %d", before, got)
	}
}

// TestSockPeerLossFailsBounded: once one rank closes, its peers' next
// collective fails (a panic naming the lost rank) instead of hanging.
func TestSockPeerLossFailsBounded(t *testing.T) {
	worlds := openSockWorld(t, 4, nil)
	defer closeWorlds(worlds)
	runRanks(worlds, func(c *Comm) { c.AllReduceScalar(0) })
	worlds[3].Close()
	done := make(chan string, 3)
	for r := 0; r < 3; r++ {
		go func(c *Comm) {
			defer func() { done <- fmt.Sprint(recover()) }()
			c.AllReduceScalar(1)
		}(worlds[r].Comm(r))
	}
	for i := 0; i < 3; i++ {
		select {
		case msg := <-done:
			if !strings.Contains(msg, "rank 3") {
				t.Errorf("survivor ended with %q, want a panic naming rank 3", msg)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a surviving rank is still blocked 10s after its peer closed")
		}
	}
}

// TestSockSteadyStateZeroAllocs: a warm 4-rank loopback world performs an
// async gather, an async reduce-scatter and a scalar all-reduce per
// iteration without a single heap allocation anywhere in the process —
// rank goroutines, reader goroutines and the net package included. As in the
// engine zero-alloc tests, the minimum over several windows filters the
// runtime's own sporadic bookkeeping allocations.
//
// The warm-up runs after the forced GC (which empties the runtime's central
// sudog cache that blocked waits draw from) and is long enough to settle the
// runtime's one-time costs: the OS threads a loaded machine makes the
// scheduler add, the refilled sudog caches, and the type-assertion cache in
// net.Buffers.WriteTo, which the runtime builds on a random ~1/1024 of the
// uncached calls. A short warm-up left those to land in the windows, and on
// a loaded machine every window caught one.
func TestSockSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	const ranks, n, warmup, windows, perWindow = 4, 4096, 300, 5, 10
	worlds := openSockWorld(t, ranks, nil)
	defer closeWorlds(worlds)
	minAllocs := ^uint64(0)
	runtime.GC()
	runRanks(worlds, func(c *Comm) {
		shard := oracleH(c.Rank(), n, 0)
		full := make([]float32, ranks*n)
		grads := oracleH(c.Rank(), ranks*n, 1)
		reduced := make([]float32, n)
		iter := func() {
			g := c.AllGatherHalfDecodeAsync(full, shard)
			r := c.ReduceScatterHalfDecodeAsync(reduced, grads)
			g.Wait()
			r.Wait()
			c.AllReduceScalar(float64(reduced[0]))
		}
		for i := 0; i < warmup; i++ {
			iter()
		}
		var ms0, ms1 runtime.MemStats
		for w := 0; w < windows; w++ {
			if c.Rank() == 0 {
				runtime.ReadMemStats(&ms0)
			}
			c.AllReduceScalar(0) // nobody enters the window before ms0 is read
			for i := 0; i < perWindow; i++ {
				iter()
			}
			c.AllReduceScalar(0) // every rank's window lands before ms1 is read
			if c.Rank() == 0 {
				runtime.ReadMemStats(&ms1)
				minAllocs = min(minAllocs, ms1.Mallocs-ms0.Mallocs)
			}
		}
	})
	if minAllocs != 0 {
		t.Fatalf("every steady-state window allocated (min %d mallocs per %d iterations), want 0", minAllocs, perWindow)
	}
}

// TestSockBootstrapErrors covers handshake validation.
func TestSockBootstrapErrors(t *testing.T) {
	if _, err := NewSockTransport(SockConfig{Rank: 2, Size: 2, Coord: "x"}); err == nil {
		t.Error("out-of-range rank accepted")
	}
	if _, err := NewSockTransport(SockConfig{Rank: 0, Size: 0, Coord: "x"}); err == nil {
		t.Error("zero size accepted")
	}
	// Dialing an address nobody listens on times out.
	addr := freeAddr(t)
	start := time.Now()
	if _, err := NewSockTransport(SockConfig{Rank: 1, Size: 2, Coord: addr, DialTimeout: 300 * time.Millisecond}); err == nil {
		t.Error("dial to a dead coordinator succeeded")
	} else if time.Since(start) > 5*time.Second {
		t.Errorf("dial retry ignored DialTimeout: %v", time.Since(start))
	}
	// World size disagreement between rank 0 and a peer.
	addr2 := freeAddr(t)
	done := make(chan error, 1)
	go func() {
		_, err := NewSockTransport(SockConfig{Rank: 0, Size: 2, Coord: addr2, DialTimeout: 3 * time.Second})
		done <- err
	}()
	_, peerErr := NewSockTransport(SockConfig{Rank: 1, Size: 3, Coord: addr2, DialTimeout: 3 * time.Second})
	coordErr := <-done
	if coordErr == nil || peerErr == nil {
		t.Errorf("size mismatch: rank 0 got %v, rank 1 got %v; want both to fail", coordErr, peerErr)
	}
}
