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
// full mesh of TCP connections (one per pair of ranks), and the shared
// owner-computes data plane — every rank computes exactly its own
// destination from the parts of its peers' contributions that destination
// needs, so no byte crosses a link it does not have to and no rank relays
// for another (the paper's bandwidth-centric argument, Sec. 6.1, applied to
// our own fabric). A rank ships each part by collCtx.part as a frameContrib
// frame the moment the collective is issued; an all-reduce's owners then
// share their reduced spans as frameReduced frames.
//
// Bit-identity with the in-memory transport is structural: a rank fills its
// view with the received parts — its own in its rank position — and runs
// collCtx.destination over it, as every in-memory rank does over the parts
// it reads in place: same table, same leaf kernels, same rank order, same
// codec.
//
// Deadlock freedom: every connection has a reader goroutine that does
// nothing but drain frames into an unbounded per-peer mailbox, so a write
// never waits on the receiving rank's progress, only on its reader. A rank
// ships its frameContrib frames at issue, before it waits for anything, and
// completes collectives strictly in sequence order (Comm.advance). By
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

	view    []payload // the parts this rank's destination reads (see collect)
	swapBuf []byte    // big-endian hosts only: byte-swapped copy of an outgoing payload

	closeOnce sync.Once
	closeErr  error
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
		view:    make([]payload, cfg.Size),
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

// ship sends this rank's contribution to its seq-th collective: to each
// peer, the part its destination reads, if any.
//
//zinf:hotpath
func (t *sockTransport) ship(seq uint64, kind opKind, root int, pl payload) {
	h := frameHdr{ftype: frameContrib, kind: kind, root: root, seq: seq, bits: math.Float64bits(pl.v)}
	for dst, p := range t.peers {
		if hs, ok := t.part(kind, root, t.rank, dst, pl); ok && p != nil {
			t.send(p, h, hs)
		}
	}
}

// take pops peer p's next frame of the given type and checks it against the
// collective this rank is completing: a different sequence number, kind or
// root is the SPMD-contract violation the in-memory transport reports as a
// collective mismatch; a different shape is a length mismatch.
//
//zinf:hotpath
func (t *sockTransport) take(p *peer, ftype byte, want pendingOp, nh int) inFrame {
	f := p.pop(ftype)
	if f.seq != want.seq || f.kind != want.kind || f.root != want.root {
		panic(fmt.Sprintf("comm: collective mismatch at seq %d: rank %d sent %s(root %d) seq %d, rank %d called %s(root %d)",
			want.seq, p.rank, f.kind, f.root, f.seq, t.rank, want.kind, want.root))
	}
	if len(f.h) != nh {
		panic(fmt.Sprintf("comm: %s length mismatch at seq %d: rank %d sent %d elements, rank %d expected %d",
			want.kind, want.seq, p.rank, len(f.h), t.rank, nh))
	}
	return f
}

// collect fills the view with every part this rank's destination reads:
// its own in place, each peer's from that peer's next contrib frame, checked
// against the length of the matching part of its own payload.
//
//zinf:hotpath
func (t *sockTransport) collect(p pendingOp) {
	for src, pr := range t.peers {
		hs, ok := t.part(p.kind, p.root, src, t.rank, p.pl)
		if !ok {
			continue
		}
		v := p.pl.v
		if pr != nil {
			f := t.take(pr, frameContrib, p, len(hs))
			hs, v = f.h, math.Float64frombits(f.bits)
		}
		t.view[src] = payload{hsrc: hs, v: v}
	}
}

// release returns the peers' staged parts to the arena and clears the view.
//
//zinf:hotpath
func (t *sockTransport) release() {
	for r := range t.view {
		if r != t.rank {
			t.hscratch.Put(t.view[r].hsrc)
		}
		t.view[r] = payload{}
	}
}

// shareReduced is the all-reduce's second phase: this rank ships the span
// of buf it reduced to every peer and copies every other owner's reduced
// span into place.
//
//zinf:hotpath
func (t *sockTransport) shareReduced(p pendingOp) {
	buf := p.pl.hdst
	lo, hi := t.ownedSpan(len(buf), t.rank)
	t.sendAll(frameHdr{ftype: frameReduced, kind: p.kind, root: p.root, seq: p.seq}, buf[lo:hi])
	for r, pr := range t.peers {
		if pr != nil {
			rlo, rhi := t.ownedSpan(len(buf), r)
			f := t.take(pr, frameReduced, p, rhi-rlo)
			copy(buf[rlo:rhi], f.h)
			t.hscratch.Put(f.h)
		}
	}
}

// complete is this rank's side of collective p once issued: collect the
// parts, compute its destination, and for an all-reduce share the spans.
//
//zinf:hotpath
func (t *sockTransport) complete(_ int, p pendingOp) float64 {
	start := time.Now()
	t.collect(p)
	res := t.destination(t.view, t.rank, p)
	if p.kind == opAllReduceHalf {
		t.shareReduced(p)
	}
	t.release()
	t.account(p.kind, p.pl)
	t.traffic[p.kind].MeasSeconds += time.Since(start).Seconds()
	return res
}

// issue ships this rank's seq-th collective at once, so peers can complete
// it — and this rank can overlap compute — before this rank waits.
//
//zinf:hotpath
func (t *sockTransport) issue(rank int, seq uint64, kind opKind, root int, pl payload) *op {
	start := time.Now()
	t.prepare(rank, kind, pl)
	t.ship(seq, kind, root, pl)
	t.traffic[kind].MeasSeconds += time.Since(start).Seconds()
	return nil
}
