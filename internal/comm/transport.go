package comm

import (
	"fmt"
	"sync"

	"repro/internal/tensor"
)

// Transport is the pluggable rank-to-rank data plane beneath a World: it
// hosts some (or all) of the world's ranks, matches their sequence-numbered
// collective ops, and executes the data movement. Two implementations exist:
//
//   - memTransport (the reference): all ranks are goroutines in one process
//     sharing an in-memory rendezvous — New builds it when WorldOptions
//     names no transport.
//   - sockTransport: each process hosts one rank and frames flow over TCP —
//     built with NewSockTransport and launched by cmd/zinf-launch.
//
// The interface is sealed (its execution methods are unexported): every
// transport must route parts through collCtx.part and compute destinations
// through collCtx.destination, because cross-transport bit-identity — the
// same fp32 rank-order accumulation on every fabric — is contractual and
// verified by the cross-transport trajectory tests.
type Transport interface {
	// Size returns the number of ranks in the world this transport connects.
	Size() int
	// Close releases the transport's resources (connections, listeners).
	// The in-memory transport's Close is a no-op.
	Close() error

	// hosts reports whether this transport instance hosts rank locally —
	// true for every rank on the in-memory transport, true only for the
	// process's own rank on the socket transport.
	hosts(rank int) bool
	// issue publishes rank's contribution to its seq-th collective — the
	// mesh ships its parts, the in-memory transport registers its buffers —
	// and returns the in-memory transport's op descriptor (nil on the mesh).
	// The buffers in pl are the collective's until complete returns for
	// rank, and no peer reads them after that.
	issue(rank int, seq uint64, kind opKind, root int, pl payload) *op
	// complete computes rank's destination of p once the parts it reads
	// are there, and returns its scalar result (0 for data collectives).
	// Comm.advance calls it in sequence order.
	complete(rank int, p pendingOp) float64
	// configure fixes the collective execution context's codec backend and
	// topology. New calls it once, before any rank can issue a collective.
	configure(codec tensor.Backend, topo *Topology) error
	// topology returns the installed (normalized) topology, nil when flat.
	topology() *Topology
	// snapshotTraffic visits every collective kind's traffic counters.
	snapshotTraffic(f func(k opKind, st TrafficStats))
}

// World is a group of communicating ranks over a Transport. It is immutable:
// the fabric (transport, topology, codec backend) is fixed by New, and
// engines read it from their communicator.
type World struct {
	t Transport
}

// WorldOptions configures New. The zero value of each field keeps the
// default (in-memory transport of Size ranks, flat topology, reference
// codec backend).
type WorldOptions struct {
	// Size is the world size for the default in-memory transport; ignored
	// (but verified when non-zero) when Transport is set.
	Size int
	// Transport supplies the data plane; nil builds an in-memory transport
	// of Size ranks.
	Transport Transport
	// Topology, when set, groups ranks into nodes (see Topology); it is
	// validated against the world size and installed before any rank runs.
	Topology *Topology
	// CodecBackend selects the binary16-conversion backend the collectives
	// encode and decode through (nil = serial reference; all backends are
	// bit-identical). It alone selects the collectives' codec: an engine's
	// Backend selects the engine's and the model's kernels, not the
	// fabric's.
	CodecBackend tensor.Backend
}

// New builds a World: transport, topology and codec backend are fixed once
// it returns, so ranks can start immediately. It is the only constructor.
func New(opts WorldOptions) (*World, error) {
	t := opts.Transport
	if t == nil {
		if opts.Size < 1 {
			return nil, fmt.Errorf("comm: world size must be >= 1")
		}
		t = newMemTransport(opts.Size)
	} else if opts.Size != 0 && opts.Size != t.Size() {
		return nil, fmt.Errorf("comm: WorldOptions.Size %d != transport size %d", opts.Size, t.Size())
	}
	if err := t.configure(tensor.DefaultBackend(opts.CodecBackend), opts.Topology); err != nil {
		return nil, err
	}
	return &World{t: t}, nil
}

// Size returns the number of ranks in the world.
//
//zinf:hotpath
func (w *World) Size() int { return w.t.Size() }

// Close releases the transport's resources. Training code should close a
// world it constructed around a socket transport; in-memory worlds need no
// cleanup.
func (w *World) Close() error { return w.t.Close() }

// Comm returns the communicator handle for the given rank. Each rank
// goroutine must use its own handle; handles are not safe for concurrent use
// by multiple goroutines. On a transport that hosts a subset of the ranks
// (the socket transport hosts exactly one), only hosted ranks are valid.
func (w *World) Comm(rank int) *Comm {
	if rank < 0 || rank >= w.Size() {
		panic(fmt.Sprintf("comm: rank %d out of range [0,%d)", rank, w.Size()))
	}
	if !w.t.hosts(rank) {
		panic(fmt.Sprintf("comm: rank %d is not hosted by this transport", rank))
	}
	return &Comm{world: w, rank: rank}
}

// Run spawns fn on one goroutine per rank this world hosts — every rank of
// an in-memory world, the process's own rank of a socket world — passing
// each its communicator, and waits for all of them to return.
func (w *World) Run(fn func(c *Comm)) {
	var wg sync.WaitGroup
	for r := 0; r < w.Size(); r++ {
		if !w.t.hosts(r) {
			continue
		}
		wg.Add(1)
		go func(c *Comm) {
			defer wg.Done()
			fn(c)
		}(w.Comm(r))
	}
	wg.Wait()
}

// Run builds a flat in-memory world of size ranks and runs fn on it (see
// World.Run). It is the standard SPMD entry point and panics if size < 1:
//
//	comm.Run(4, func(c *comm.Comm) { ... })
func Run(size int, fn func(c *Comm)) {
	w, err := New(WorldOptions{Size: size})
	if err != nil {
		panic(err)
	}
	w.Run(fn)
}

// Comm is one rank's handle on the world.
type Comm struct {
	world *World
	rank  int
	seq   uint64

	// pending[phead:] are the issued, not yet completed collectives in
	// sequence order (see advance).
	pending []pendingOp
	phead   int
}

// Rank returns this communicator's rank.
//
//zinf:hotpath
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the world.
//
//zinf:hotpath
func (c *Comm) Size() int { return c.world.Size() }
