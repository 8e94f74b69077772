package comm

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"repro/internal/tensor"
)

// sockTransport is the multi-process Transport: one rank per OS process, a
// full mesh of TCP connections (one per pair of ranks), and an
// owner-computes data plane — every rank computes exactly its own
// destination from the parts of its peers' contributions that destination
// needs, so no byte crosses a link it does not have to and no rank relays
// for another (the paper's bandwidth-centric argument, Sec. 6.1, applied to
// our own fabric). Who sends what, as frameContrib frames shipped the moment
// a collective is issued:
//
//	scalar allreduce/max        every rank → every peer: header only
//	broadcasthalf               root → every peer: its buffer
//	allgatherhalfdecode         every rank → every peer: its fp16 shard,
//	                            decoded at each receiver
//	allgatherencodehalf         every rank → every peer: its shard, encoded
//	                            once at the sender
//	reducehalfdecode            every non-root → root: its source
//	reducescatterhalfdecode     every rank → owner r: slice r of its source;
//	                            nothing comes back
//	allreducehalf               as the reduce-scatter over ownedSpan slices;
//	                            then every owner → every peer: its reduced
//	                            slice, as a frameReduced frame
//
// Every payload is binary16: fp16 is what crosses a link, whatever type the
// collective delivers into.
//
// Bit-identity with the in-memory transport is structural: a rank fills its
// op descriptor with views of those parts — its own in its rank position —
// and runs the same per-destination kernels the in-memory transport's last
// arriver runs for every rank (reduceHalfInto, reduceHalfDecodeInto,
// gatherHalfInto, gatherHalfDecodeInto): same leaf kernels, same rank order,
// same codec. The all-reduce is the reduce-scatter kernel over each owner's
// slice followed by a copy, which is elementwise what computeAllReduceHalf
// does over the whole buffer.
//
// Deadlock freedom: every connection has a reader goroutine that does
// nothing but drain frames into an unbounded per-peer mailbox, so a write
// never waits on the receiving rank's progress, only on its reader. A rank
// ships its frameContrib frames at issue, before it waits for anything, and
// completes collectives strictly in sequence order (issue appends to a
// pending FIFO; Wait advances it head-first through the awaited sequence
// number, which also makes out-of-order Wait calls safe). By
// induction over sequence numbers every frame a rank waits for has been, or
// will unconditionally be, written: contrib frames at the sender's issue,
// reduced frames once the sender holds the contrib frames its peers already
// shipped. Each connection carries the two frame types in sequence order
// within the type, so each mailbox keeps one FIFO per type.
//
// Measured traffic is each rank's own: the bytes it wrote (headers
// included), classified intra/inter-node by whether the receiving peer
// shares its node, and the wall-clock time it spent inside the transport —
// shipping at issue plus completing, waits for peers included.
type sockTransport struct {
	collCtx
	rank    int
	peers   []*peer // by rank; nil at this rank's own index
	readers sync.WaitGroup

	pending    []sockOp
	phead      int
	lastResult float64

	o       *op    // the one reusable descriptor (see op)
	swapBuf []byte // big-endian hosts only: byte-swapped copy of an outgoing payload

	closeOnce sync.Once
	closeErr  error
}

// sockOp is one issued-but-not-completed collective on this rank.
type sockOp struct {
	seq  uint64
	kind opKind
	root int
	pl   payload
}

// peer is this rank's end of the connection to one other rank: the write
// side belongs to the rank goroutine, the read side to the reader goroutine,
// and the mailbox between them is guarded by mu.
type peer struct {
	rank  int
	c     net.Conn
	br    *bufio.Reader
	intra bool // shares this rank's node under the installed topology

	whdr [frameHdrLen]byte // rank goroutine: header being written
	iov  [2][]byte         // rank goroutine: header + payload
	vec  net.Buffers
	sent int64 // wire bytes written to this peer

	rhdr [frameHdrLen]byte // reader goroutine: header being read

	mu   sync.Mutex
	cond *sync.Cond
	q    [frameTypes]frameQueue // by frame type, each in sequence order
	rcvd int64                  // wire bytes read from this peer
	err  error
}

type frameQueue struct {
	q    []inFrame
	head int
}

func newPeer(rank int, c net.Conn) *peer {
	// Small read buffer: headers and header-only frames coalesce into one
	// read; payloads larger than it bypass it into their staging.
	p := &peer{rank: rank, c: c, br: bufio.NewReaderSize(c, 4096)}
	p.cond = sync.NewCond(&p.mu)
	return p
}

//zinf:hotpath
func (p *peer) push(f inFrame) {
	p.mu.Lock()
	fq := &p.q[f.ftype-1]
	if len(fq.q) == cap(fq.q) && fq.head > 0 {
		// Compact instead of growing: a peer that stays ahead never lets
		// pop drain the queue, so without this the backing array would
		// double for ever.
		n := copy(fq.q, fq.q[fq.head:])
		clear(fq.q[n:])
		fq.q, fq.head = fq.q[:n], 0
	}
	fq.q = append(fq.q, f)
	p.rcvd += f.wireLen()
	p.mu.Unlock()
	p.cond.Signal()
}

func (p *peer) fail(err error) {
	p.mu.Lock()
	p.err = err
	p.mu.Unlock()
	p.cond.Broadcast()
}

// pop blocks for the peer's next frame of the given type. A dead peer
// panics: the world cannot make collective progress without it, and the
// process exit is what tells the launcher to kill the remaining ranks.
//
//zinf:hotpath
func (p *peer) pop(ftype byte) inFrame {
	p.mu.Lock()
	fq := &p.q[ftype-1]
	for fq.head == len(fq.q) {
		if p.err != nil {
			p.mu.Unlock()
			panic(fmt.Sprintf("comm: sock: connection to rank %d lost: %v", p.rank, p.err))
		}
		p.cond.Wait()
	}
	f := fq.q[fq.head]
	fq.q[fq.head] = inFrame{}
	fq.head++
	if fq.head == len(fq.q) {
		fq.q = fq.q[:0]
		fq.head = 0
	}
	p.mu.Unlock()
	return f
}

// SockConfig configures one rank's end of a socket-transport world.
type SockConfig struct {
	// Rank and Size identify this process within the world.
	Rank, Size int
	// Coord is the coordinator's TCP address ("host:port"). Rank 0 listens
	// on it; every other rank dials it (retrying until DialTimeout, so
	// workers may start in any order), learns its peers' addresses there,
	// and keeps the connection as its link to rank 0. Peers listen on an
	// ephemeral port of the interface that reached Coord.
	Coord string
	// DialTimeout bounds bootstrap: dial retries, the handshakes, and the
	// wait for stragglers to connect. Defaults to 15s.
	DialTimeout time.Duration
}

// NewSockTransport bootstraps one rank of a TCP-connected world and blocks
// until this rank holds an identified connection to every other rank. Pass
// the result to New via WorldOptions.Transport; the world then hosts exactly
// this rank.
func NewSockTransport(cfg SockConfig) (Transport, error) {
	if cfg.Size < 1 {
		return nil, fmt.Errorf("comm: sock: world size %d < 1", cfg.Size)
	}
	if cfg.Rank < 0 || cfg.Rank >= cfg.Size {
		return nil, fmt.Errorf("comm: sock: rank %d out of range [0,%d)", cfg.Rank, cfg.Size)
	}
	if cfg.Size > math.MaxUint16 {
		return nil, fmt.Errorf("comm: sock: world size %d exceeds the frame header's 16-bit rank", cfg.Size)
	}
	timeout := cfg.DialTimeout
	if timeout <= 0 {
		timeout = 15 * time.Second
	}
	t := &sockTransport{
		collCtx: newCollCtx(cfg.Size),
		rank:    cfg.Rank,
		peers:   make([]*peer, cfg.Size),
		o:       &op{contrib: make([]payload, cfg.Size)},
	}
	if cfg.Size == 1 {
		return t, nil // solo world: no network at all
	}
	deadline := time.Now().Add(timeout)
	var err error
	if cfg.Rank == 0 {
		err = t.bootstrapCoord(cfg.Coord, deadline)
	} else {
		err = t.bootstrapPeer(cfg.Coord, deadline)
	}
	if err != nil {
		t.Close()
		return nil, err
	}
	for _, p := range t.peers {
		if p != nil {
			p.c.SetDeadline(time.Time{})
			t.readers.Add(1)
			go t.readLoop(p)
		}
	}
	return t, nil
}

// accept takes the next connection off ln and reads its hello, admitting
// only ranks in (t.rank, size) that have not connected yet. The connection
// is registered in t.peers (so a failed bootstrap closes it) but not yet
// acknowledged.
func (t *sockTransport) accept(ln net.Listener, deadline time.Time) (*peer, string, error) {
	ln.(*net.TCPListener).SetDeadline(deadline)
	c, err := ln.Accept()
	if err != nil {
		return nil, "", fmt.Errorf("comm: sock: rank %d waiting for peers to connect: %w", t.rank, err)
	}
	c.SetDeadline(deadline)
	rank, size, addr, err := readHello(c)
	switch {
	case err != nil:
	case size != t.size:
		err = fmt.Errorf("comm: sock: rank %d believes world size is %d, rank %d has %d", rank, size, t.rank, t.size)
	case rank <= t.rank || rank >= t.size:
		err = fmt.Errorf("comm: sock: rank %d got a hello from rank %d, want one of (%d,%d)", t.rank, rank, t.rank, t.size)
	case t.peers[rank] != nil:
		err = fmt.Errorf("comm: sock: duplicate hello from rank %d", rank)
	}
	if err != nil {
		c.Close()
		return nil, "", err
	}
	t.peers[rank] = newPeer(rank, c)
	return t.peers[rank], addr, nil
}

// bootstrapCoord is rank 0's bootstrap: collect every rank's hello (and
// listener address), then answer each with the address table. Rank 0 only
// brokers addresses; its connections double as its own links in the mesh.
func (t *sockTransport) bootstrapCoord(coord string, deadline time.Time) error {
	ln, err := net.Listen("tcp", coord)
	if err != nil {
		return fmt.Errorf("comm: sock: rank 0 listen %s: %w", coord, err)
	}
	defer ln.Close()
	addrs := make([]string, t.size)
	for have := 1; have < t.size; have++ {
		p, addr, err := t.accept(ln, deadline)
		if err != nil {
			return err
		}
		addrs[p.rank] = addr
	}
	for _, p := range t.peers[1:] {
		if err := writeWelcome(p.c, t.size, addrs); err != nil {
			return fmt.Errorf("comm: sock: welcoming rank %d: %w", p.rank, err)
		}
	}
	return nil
}

// bootstrapPeer is every other rank's bootstrap: listen, announce the
// listener to rank 0 and learn the table, dial every lower rank, accept
// every higher one. Lower ranks finish dialing first, so the sequential
// dial-then-accept order cannot cycle.
func (t *sockTransport) bootstrapPeer(coord string, deadline time.Time) error {
	c, err := dialRetry(coord, deadline)
	if err != nil {
		return fmt.Errorf("comm: sock: rank %d could not reach rank 0 at %s: %w", t.rank, coord, err)
	}
	t.peers[0] = newPeer(0, c)
	host, _, err := net.SplitHostPort(c.LocalAddr().String())
	if err != nil {
		return fmt.Errorf("comm: sock: rank %d local address: %w", t.rank, err)
	}
	ln, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
	if err != nil {
		return fmt.Errorf("comm: sock: rank %d listen on %s: %w", t.rank, host, err)
	}
	defer ln.Close()
	addrs, err := t.hello(t.peers[0], ln.Addr().String(), deadline)
	if err != nil {
		return err
	}
	if len(addrs) != t.size {
		return fmt.Errorf("comm: sock: rank 0 sent no address table to rank %d", t.rank)
	}
	for r := 1; r < t.rank; r++ {
		c, err := net.DialTimeout("tcp", addrs[r], time.Until(deadline))
		if err != nil {
			return fmt.Errorf("comm: sock: rank %d could not reach rank %d at %s: %w", t.rank, r, addrs[r], err)
		}
		t.peers[r] = newPeer(r, c)
		if _, err := t.hello(t.peers[r], "", deadline); err != nil {
			return err
		}
	}
	for r := t.rank + 1; r < t.size; r++ {
		p, _, err := t.accept(ln, deadline)
		if err == nil {
			err = writeWelcome(p.c, t.size, nil)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// hello identifies this rank to p and returns the welcome's address table.
func (t *sockTransport) hello(p *peer, listenAddr string, deadline time.Time) ([]string, error) {
	p.c.SetDeadline(deadline)
	if err := writeHello(p.c, t.rank, t.size, listenAddr); err != nil {
		return nil, fmt.Errorf("comm: sock: rank %d hello to rank %d: %w", t.rank, p.rank, err)
	}
	addrs, err := readWelcome(p.c, t.size)
	if err != nil {
		return nil, fmt.Errorf("comm: sock: rank %d welcome from rank %d: %w", t.rank, p.rank, err)
	}
	return addrs, nil
}

// dialRetry dials addr until it answers or the deadline passes: the
// coordinator may not be listening yet.
func dialRetry(addr string, deadline time.Time) (net.Conn, error) {
	for {
		c, err := net.DialTimeout("tcp", addr, time.Until(deadline))
		if err == nil {
			return c, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// readLoop drains one peer's frames into its mailbox. It owns the
// connection's read side and exits when the connection dies (Close
// included).
func (t *sockTransport) readLoop(p *peer) {
	defer t.readers.Done()
	for {
		f, err := readFrame(p.br, p.rhdr[:], t.hscratch, maxFrameElems)
		if err != nil {
			p.fail(err)
			return
		}
		p.push(f)
	}
}

// Size returns the number of ranks in the world.
//
//zinf:hotpath
func (t *sockTransport) Size() int { return t.size }

// Close closes every connection and returns once every reader goroutine has
// exited. Peers still running see the loss on their next collective.
func (t *sockTransport) Close() error {
	t.closeOnce.Do(func() {
		var errs []error
		for _, p := range t.peers {
			if p != nil {
				errs = append(errs, p.c.Close())
			}
		}
		t.readers.Wait()
		t.closeErr = errors.Join(errs...)
	})
	return t.closeErr
}

// hosts reports whether this process hosts rank: exactly one rank per
// process on the socket transport.
func (t *sockTransport) hosts(rank int) bool { return rank == t.rank }

// configure runs during World construction, before the rank issues
// collectives; readers never touch codec, topo or peer.intra, so no locking
// is needed.
func (t *sockTransport) configure(codec tensor.Backend, topo *Topology) error {
	if err := t.collCtx.configure(codec, topo); err != nil {
		return err
	}
	for _, p := range t.peers {
		if p != nil {
			p.intra = t.nodeOf(p.rank) == t.nodeOf(t.rank)
		}
	}
	return nil
}

// snapshotTraffic runs on the rank goroutine (via Comm.Traffic etc.), which
// is also the only goroutine writing t.traffic.
func (t *sockTransport) snapshotTraffic(f func(k opKind, st TrafficStats)) {
	for k := range t.traffic {
		f(opKind(k), t.traffic[k])
	}
}

// ownedSpan returns the slice [lo,hi) of an n-element buffer that rank r
// owns in a reduction: ceil(n/size)-sized chunks in rank order, the tail
// ranks' possibly short or empty. For n = size*m it is [r*m,(r+1)*m) — the
// reduce-scatter's shard.
//
//zinf:hotpath
func (t *sockTransport) ownedSpan(n, r int) (lo, hi int) {
	chunk := (n + t.size - 1) / t.size
	return min(r*chunk, n), min((r+1)*chunk, n)
}

// send writes one frame to p — header and payload in one vectored write, the
// payload straight from the caller's memory — and accounts its wire bytes. A
// write failure panics: a rank that cannot reach a peer cannot make
// collective progress, and the process exit is what tells the launcher to
// kill the world.
//
//zinf:hotpath
func (t *sockTransport) send(p *peer, h frameHdr, hs []tensor.Half) {
	h.nh = len(hs)
	putHdr(p.whdr[:], h)
	pb := tensor.ByteView(hs)
	if hostSwaps {
		t.swapBuf = append(t.swapBuf[:0], pb...)
		pb = t.swapBuf
		swapBytes(pb)
	}
	p.iov = [2][]byte{p.whdr[:], pb}
	p.vec = p.iov[:]
	if _, err := p.vec.WriteTo(p.c); err != nil {
		panic(fmt.Sprintf("comm: sock: write to rank %d failed at seq %d (%s): %v", p.rank, h.seq, h.kind, err))
	}
	n := h.wireLen()
	p.sent += n
	if st := &t.traffic[h.kind]; p.intra {
		st.MeasIntraBytes += n
	} else {
		st.MeasInterBytes += n
	}
}

// sendAll sends the same frame to every peer.
//
//zinf:hotpath
func (t *sockTransport) sendAll(h frameHdr, hs []tensor.Half) {
	for _, p := range t.peers {
		if p != nil {
			t.send(p, h, hs)
		}
	}
}

// sendSlices sends every peer r the slice of hs it owns.
//
//zinf:hotpath
func (t *sockTransport) sendSlices(h frameHdr, hs []tensor.Half) {
	for r, p := range t.peers {
		if p != nil {
			lo, hi := t.ownedSpan(len(hs), r)
			t.send(p, h, hs[lo:hi])
		}
	}
}

// ship sends this rank's contribution to its seq-th collective to the peers
// whose destinations need it (the table in the type comment).
//
//zinf:hotpath
func (t *sockTransport) ship(so sockOp) {
	pl := so.pl
	h := frameHdr{ftype: frameContrib, kind: so.kind, root: so.root, seq: so.seq, bits: math.Float64bits(pl.v)}
	switch so.kind {
	case opAllReduceScalar, opAllReduceMax:
		t.sendAll(h, nil)
	case opBroadcastHalf:
		if t.rank == so.root {
			t.sendAll(h, pl.hdst)
		}
	case opAllGatherHalfDecode:
		t.sendAll(h, pl.hsrc)
	case opAllGatherEncodeHalf:
		// Round once, into this rank's own slot of dst, and ship the slot.
		own := pl.hdst[t.rank*len(pl.fsrc) : (t.rank+1)*len(pl.fsrc)]
		t.codec.EncodeHalf(own, pl.fsrc)
		t.sendAll(h, own)
	case opReduceHalfDecode:
		if t.rank != so.root {
			t.send(t.peers[so.root], h, pl.hsrc)
		}
	case opReduceScatterHalfDecode:
		t.sendSlices(h, pl.hsrc)
	case opAllReduceHalf:
		t.sendSlices(h, pl.hdst)
	}
}

// take pops peer p's next frame of the given type and checks it against the
// collective this rank is completing: a different sequence number, kind or
// root is the SPMD-contract violation the in-memory transport reports as a
// collective mismatch; a different shape is a length mismatch.
//
//zinf:hotpath
func (t *sockTransport) take(p *peer, ftype byte, so sockOp, nh int) inFrame {
	f := p.pop(ftype)
	if f.seq != so.seq || f.kind != so.kind || f.root != so.root {
		panic(fmt.Sprintf("comm: collective mismatch at seq %d: rank %d sent %s(root %d) seq %d, rank %d called %s(root %d)",
			so.seq, p.rank, f.kind, f.root, f.seq, t.rank, so.kind, so.root))
	}
	if len(f.h) != nh {
		panic(fmt.Sprintf("comm: %s length mismatch at seq %d: rank %d sent %d elements, rank %d expected %d",
			so.kind, so.seq, p.rank, len(f.h), t.rank, nh))
	}
	return f
}

// collect fills the descriptor with one contrib frame from every peer, each
// carrying nh binary16 elements, as that rank's source.
//
//zinf:hotpath
func (t *sockTransport) collect(so sockOp, nh int) {
	for r, p := range t.peers {
		if p != nil {
			f := t.take(p, frameContrib, so, nh)
			t.o.contrib[r] = payload{hsrc: f.h, v: math.Float64frombits(f.bits)}
		}
	}
}

// release returns the peers' staged contributions to the arena and clears
// the descriptor.
//
//zinf:hotpath
func (t *sockTransport) release() {
	for r := range t.o.contrib {
		if r != t.rank {
			t.hscratch.Put(t.o.contrib[r].hsrc)
		}
		t.o.contrib[r] = payload{}
	}
}

// shareReduced is the all-reduce's second phase: this rank ships the slice
// of buf it reduced to every peer and copies every other owner's reduced
// slice into place.
//
//zinf:hotpath
func (t *sockTransport) shareReduced(so sockOp, buf []tensor.Half) {
	lo, hi := t.ownedSpan(len(buf), t.rank)
	t.sendAll(frameHdr{ftype: frameReduced, kind: so.kind, root: so.root, seq: so.seq}, buf[lo:hi])
	for r, p := range t.peers {
		if p != nil {
			rlo, rhi := t.ownedSpan(len(buf), r)
			f := t.take(p, frameReduced, so, rhi-rlo)
			copy(buf[rlo:rhi], f.h)
			t.hscratch.Put(f.h)
		}
	}
}

// complete finishes one collective on this rank: gather the parts of the
// peers' contributions this rank's destination needs, put this rank's own
// part in its rank position, and run the shared per-destination kernel.
// Returns the scalar result (0 for data collectives).
//
//zinf:hotpath
func (t *sockTransport) complete(so sockOp) float64 {
	w, o, me, pl := &t.collCtx, t.o, t.rank, so.pl
	own := &o.contrib[me]
	switch so.kind {
	case opAllReduceScalar, opAllReduceMax:
		t.collect(so, 0)
		own.v = pl.v
		computeFns[so.kind](w, o)
	case opBroadcastHalf:
		if me != so.root {
			f := t.take(t.peers[so.root], frameContrib, so, len(pl.hdst))
			copy(pl.hdst, f.h)
			t.hscratch.Put(f.h)
		}
	case opAllGatherEncodeHalf:
		n := len(pl.fsrc)
		t.collect(so, n)
		own.hsrc = pl.hdst[me*n : (me+1)*n] // encoded in place by ship
		gatherHalfInto(o, pl.hdst)
	case opAllGatherHalfDecode:
		t.collect(so, len(pl.hsrc))
		own.hsrc = pl.hsrc
		w.gatherHalfDecodeInto(o, pl.fdst)
	case opReduceHalfDecode:
		if me == so.root {
			t.collect(so, len(pl.hsrc))
			own.hsrc = pl.hsrc
			w.reduceHalfDecodeInto(o, pl.fdst, 0)
		}
	case opReduceScatterHalfDecode:
		n := len(pl.fdst)
		t.collect(so, n)
		own.hsrc = pl.hsrc[me*n : (me+1)*n]
		w.reduceHalfDecodeInto(o, pl.fdst, 0)
	case opAllReduceHalf:
		lo, hi := t.ownedSpan(len(pl.hdst), me)
		t.collect(so, hi-lo)
		own.hsrc = pl.hdst[lo:hi]
		w.reduceHalfInto(o, pl.hdst[lo:hi], 0)
		t.shareReduced(so, pl.hdst)
	}
	res := o.result
	o.result = 0
	t.release()
	t.account(so.kind, pl)
	return res
}

// issue registers this rank's seq-th collective: its contribution ships
// immediately (so peers can complete — and it can overlap compute — without
// waiting for this rank to Wait), and the op joins the pending FIFO that
// Ticket.Wait advances.
//
//zinf:hotpath
func (t *sockTransport) issue(rank int, seq uint64, kind opKind, root int, pl payload) Ticket {
	start := time.Now()
	so := sockOp{seq: seq, kind: kind, root: root, pl: pl}
	t.ship(so)
	t.pending = append(t.pending, so)
	t.traffic[kind].MeasSeconds += time.Since(start).Seconds()
	return Ticket{st: t, seq: seq}
}

// advance completes pending collectives in sequence order through target
// and returns the last one's scalar result (a synchronous scalar collective
// waits at once, so that is its own). Already-completed targets are no-ops,
// which is what makes out-of-order Wait calls safe.
//
//zinf:hotpath
func (t *sockTransport) advance(target uint64) float64 {
	for t.phead < len(t.pending) && t.pending[t.phead].seq <= target {
		so := t.pending[t.phead]
		t.pending[t.phead] = sockOp{}
		t.phead++
		if t.phead == len(t.pending) {
			t.pending = t.pending[:0]
			t.phead = 0
		}
		start := time.Now()
		t.lastResult = t.complete(so)
		t.traffic[so.kind].MeasSeconds += time.Since(start).Seconds()
	}
	return t.lastResult
}
