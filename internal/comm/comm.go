// Package comm provides the collective-communication substrate for the
// ZeRO-Infinity reproduction. A World of n ranks runs SPMD code over a
// pluggable Transport. The collectives are the ones ZeRO-Infinity's traffic
// needs (paper Sec. 6.1) and no others: the fp16 parameter allgather
// (AllGatherHalfDecode, AllGatherEncodeHalf) or owner broadcast
// (BroadcastHalf), the fp16 gradient reduce-scatter
// (ReduceScatterHalfDecode), reduce-to-owner (ReduceHalfDecode) or all-reduce
// (AllReduceHalf), and the overflow/clip/loss scalars (AllReduceScalar,
// AllReduceMax). Data semantics are NCCL's.
//
// Collective matching follows the SPMD contract: every rank must invoke the
// same sequence of collectives on the same communicator. Each call is matched
// by a per-rank sequence number, so the implementation is insensitive to
// goroutine scheduling and safe under the race detector. Reductions
// accumulate in rank order with float32 arithmetic, making results
// deterministic and enabling bit-exact engine-equivalence tests.
//
// Two transports move the bytes (see transport.go): the reference in-memory
// rendezvous (ranks are goroutines in one process) and a TCP socket mesh
// (each rank is its own OS process, launched by cmd/zinf-launch). Everything
// else is one data plane, owner-computes as in the paper's bandwidth-centric
// partitioning: every rank computes only its own destination, from the parts
// of its peers' contributions that destination reads (collCtx.part), with
// the same per-destination kernels (collCtx.destination), completing its
// collectives in sequence order (Comm.advance). The in-memory transport
// reads the parts in place in the peers' buffers; the mesh receives them as
// frames. So the fp32 rank-order accumulation, and therefore the training
// trajectory, is bit-identical across transports.
//
// The substrate is allocation-free in steady state: in-flight op descriptors
// are pooled and reused, per-rank contributions are flat payload structs
// (no interface boxing), the data-movement functions are package-level (no
// closure captures), and reduction/encode scratch comes from a context-owned
// size-classed arena. The data collectives are fused with the fp16 codec
// (encode before an allgather, decode after a gather or reduction), so no
// caller holds an intermediate full-size fp16 buffer.
//
// Every collective takes one path: it is issued (its contribution registered
// with the transport, a Ticket returned) and then waited. The synchronous
// methods are issue-then-Wait; the *Async methods hand the ticket to the
// caller.
package comm

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/tensor"
)

// opKind enumerates the collective types. An enum (rather than a per-call
// formatted string) keeps the mismatch check allocation-free. The values go
// over the wire (frameHdr.kind): renumbering them is a wireVersion bump.
type opKind uint8

const (
	opBroadcastHalf opKind = iota
	opAllReduceHalf
	opAllGatherEncodeHalf
	opAllGatherHalfDecode
	opReduceScatterHalfDecode
	opReduceHalfDecode
	opAllReduceScalar
	opAllReduceMax

	opKindCount
)

var opNames = [...]string{
	"broadcasthalf", "allreducehalf", "allgatherencodehalf",
	"allgatherhalfdecode", "reducescatterhalfdecode", "reducehalfdecode",
	"allreducescalar", "allreducemax",
}

// A kind without a name, or a name without a kind, fails to compile.
var _ [opKindCount]string = opNames

func (k opKind) String() string { return opNames[k] }

// payload is one rank's contribution to a collective: a flat union covering
// every collective's argument shapes. Passing it by value avoids the
// per-call interface boxing the previous []any design paid on every
// collective.
type payload struct {
	fdst, fsrc []float32
	hdst, hsrc []tensor.Half
	v          float64
}

// collCtx is the transport-neutral data plane: who reads what (part), the
// one step a contribution takes at issue (prepare), and the per-destination
// kernels (destination), factored out of the transports so every fabric runs
// the exact same data movement and fp32 rank-order accumulation. Each rank
// computes its own destination on its own goroutine; a transport supplies
// only the parts and, for the all-reduce, the sharing of reduced spans. New
// fixes codec and topo through configure before any rank runs; nothing
// writes them afterwards.
type collCtx struct {
	size int

	// fscratch/hscratch serve the reductions' accumulator/decode/encode
	// buffers. The arenas carry their own locks, so concurrent destinations
	// and transport-side reader goroutines share them.
	fscratch *mem.Arena[float32]
	hscratch *mem.Arena[tensor.Half]

	// codec dispatches the binary16 conversions the collectives perform.
	// Every backend is bit-identical, so this is purely a speed knob.
	codec tensor.Backend

	// topo, when set, groups ranks into nodes. It never changes what a
	// collective delivers — only which link class account charges each
	// collective's bytes to and what it costs there. See topology.go.
	topo    *Topology
	traffic [opKindCount]TrafficStats
}

func newCollCtx(size int) collCtx {
	return collCtx{
		size:     size,
		fscratch: mem.NewArena[float32](),
		hscratch: mem.NewArena[tensor.Half](),
	}
}

// configure fixes the codec backend and the (validated, normalized)
// topology. New calls it once, before it hands out the world.
func (w *collCtx) configure(codec tensor.Backend, topo *Topology) error {
	cp, err := normalizeTopology(topo, w.size)
	if err != nil {
		return err
	}
	w.codec, w.topo = codec, cp
	return nil
}

// topology returns the installed (normalized) topology, nil when flat.
func (w *collCtx) topology() *Topology { return w.topo }

// ownedSpan returns the slice [lo,hi) of an n-element buffer that rank r
// owns in a reduction: ceil(n/size)-sized chunks in rank order, the tail
// ranks' possibly short or empty. For n = size*m it is [r*m,(r+1)*m) — the
// reduce-scatter's shard.
//
//zinf:hotpath
func (w *collCtx) ownedSpan(n, r int) (lo, hi int) {
	chunk := (n + w.size - 1) / w.size
	return min(r*chunk, n), min((r+1)*chunk, n)
}

// part returns the part of rank src's contribution pl that rank dst's
// destination reads, and whether it reads any. It is the data plane's whole
// routing table; the mesh ships by it and the in-memory transport reads by
// it:
//
//	scalar allreduce/max        every rank → every rank: no elements (the
//	                            value itself is pl.v)
//	broadcasthalf               root → every other rank: its buffer
//	allgatherhalfdecode         every rank → every rank: its fp16 shard,
//	                            decoded at each destination
//	allgatherencodehalf         every rank → every rank: its own slot of dst,
//	                            encoded once by prepare
//	reducehalfdecode            every rank → root: its source
//	reducescatterhalfdecode     every rank → owner r: slice r of its source
//	allreducehalf               every rank → owner r: span r of its buffer
//	                            (ownedSpan); each owner then shares its
//	                            reduced span with every rank
//
// Every part is binary16: fp16 is what crosses a link, whatever type the
// collective delivers into. Shapes are equal on every rank, so a rank's own
// payload also gives the length of every peer's part.
//
//zinf:hotpath
func (w *collCtx) part(kind opKind, root, src, dst int, pl payload) ([]tensor.Half, bool) {
	switch kind {
	case opBroadcastHalf:
		return pl.hdst, src == root && dst != root
	case opAllGatherHalfDecode:
		return pl.hsrc, true
	case opAllGatherEncodeHalf:
		n := len(pl.fsrc)
		return pl.hdst[src*n : (src+1)*n], true
	case opReduceHalfDecode:
		return pl.hsrc, dst == root
	case opReduceScatterHalfDecode:
		lo, hi := w.ownedSpan(len(pl.hsrc), dst)
		return pl.hsrc[lo:hi], true
	case opAllReduceHalf:
		lo, hi := w.ownedSpan(len(pl.hdst), dst)
		return pl.hdst[lo:hi], true
	}
	return nil, true // the scalar kinds
}

// prepare is the one step a contribution takes when rank issues it, before
// any rank reads it: an all-gather+encode rounds the rank's shard, once,
// into its own slot of dst — the part every destination reads.
//
//zinf:hotpath
func (w *collCtx) prepare(rank int, kind opKind, pl payload) {
	if kind == opAllGatherEncodeHalf {
		n := len(pl.fsrc)
		w.codec.EncodeHalf(pl.hdst[rank*n:(rank+1)*n], pl.fsrc)
	}
}

// destination computes rank me's destination of collective p and returns
// its scalar result (0 for a data collective). d[src] holds what me reads of
// rank src's contribution: part(…, src, me, …) in hsrc, src's scalar in v.
// For an all-reduce it computes only me's owned span; the transport then
// shares the spans.
//
//zinf:hotpath
func (w *collCtx) destination(d []payload, me int, p pendingOp) float64 {
	pl := p.pl
	switch p.kind {
	case opAllReduceScalar:
		var s float64
		for i := range d {
			s += d[i].v
		}
		return s
	case opAllReduceMax:
		m := d[0].v
		for _, cb := range d[1:] {
			if cb.v > m {
				m = cb.v
			}
		}
		return m
	case opBroadcastHalf:
		if me != p.root {
			copy(pl.hdst, d[p.root].hsrc)
		}
	case opAllGatherEncodeHalf:
		gatherHalfInto(d, me, pl.hdst)
	case opAllGatherHalfDecode:
		w.gatherHalfDecodeInto(d, pl.fdst)
	case opReduceHalfDecode:
		if me == p.root {
			w.reduceHalfDecodeInto(d, pl.fdst)
		}
	case opReduceScatterHalfDecode:
		w.reduceHalfDecodeInto(d, pl.fdst)
	case opAllReduceHalf:
		lo, hi := w.ownedSpan(len(pl.hdst), me)
		w.reduceHalfInto(d, pl.hdst[lo:hi])
	}
	return 0
}

// BroadcastHalf copies root's binary16 buf into every rank's buf (all equal
// length): the parameter gather of the owner-rank-broadcast partitioning
// strategy (Fig. 6c's baseline).
//
//zinf:hotpath
func (c *Comm) BroadcastHalf(buf []tensor.Half, root int) {
	t := c.BroadcastHalfAsync(buf, root)
	t.Wait()
}

// AllGatherHalfDecode gathers binary16 shards and delivers them decoded:
// every rank contributes a binary16 shard (all equal length), and the
// decoded shards are concatenated into every rank's dst in rank order. What
// crosses a link is fp16; the caller never holds a full-size fp16 buffer.
// The engines' parameter gathers under 1/dp slicing run on this. len(dst)
// must be Size()*len(src).
//
//zinf:hotpath
func (c *Comm) AllGatherHalfDecode(dst []float32, src []tensor.Half) {
	t := c.AllGatherHalfDecodeAsync(dst, src)
	t.Wait()
}

// gatherHalfDecodeInto is one destination of the allgather+decode: every
// shard decoded straight into its rank-order slot of dst.
//
//zinf:hotpath
func (w *collCtx) gatherHalfDecodeInto(d []payload, dst []float32) {
	n := len(d[0].hsrc)
	for r := range d {
		w.codec.DecodeHalf(dst[r*n:(r+1)*n], d[r].hsrc)
	}
}

// AllGatherEncodeHalf gathers float32 shards as binary16: every rank
// contributes a float32 shard, each shard is rounded to binary16 once, and
// the encoded shards are concatenated into every rank's dst in rank order —
// without a per-rank intermediate fp16 shard buffer. The replicated-
// parameter engines rebuild their fp16 weights from fp32 master shards with
// it. len(dst) must be Size()*len(src).
//
//zinf:hotpath
func (c *Comm) AllGatherEncodeHalf(dst []tensor.Half, src []float32) {
	if len(dst) != c.Size()*len(src) {
		panic(fmt.Sprintf("comm: allgatherencodehalf dst len %d != size %d * src len %d", len(dst), c.Size(), len(src)))
	}
	t := c.issue(opAllGatherEncodeHalf, 0, payload{hdst: dst, fsrc: src})
	t.Wait()
}

// gatherHalfInto is rank me's destination of the allgather+encode: every
// peer's encoded shard copied into its rank-order slot of dst. Me's own slot
// already holds its shard (prepare) and is skipped: peers are reading it.
//
//zinf:hotpath
func gatherHalfInto(d []payload, me int, dst []tensor.Half) {
	n := len(d[0].hsrc)
	for r := range d {
		if r != me {
			copy(dst[r*n:(r+1)*n], d[r].hsrc)
		}
	}
}

// ReduceScatterHalfDecode reduce-scatters binary16 gradients: contributions
// are decoded to float32 and summed in rank order with float32 accumulation
// (the fp32-accumulate behaviour of tensor-core reductions); rank r's shard —
// elements [r*len(dst), (r+1)*len(dst)) of the sum — is rounded through
// binary16, which is what a link would carry, and delivered as float32 into
// its dst. len(src) must be Size()*len(dst).
//
//zinf:hotpath
func (c *Comm) ReduceScatterHalfDecode(dst []float32, src []tensor.Half) {
	t := c.ReduceScatterHalfDecodeAsync(dst, src)
	t.Wait()
}

// reduceHalfShard computes the fp32 rank-order sum of every part into acc
// (the shared accumulation kernel of the half reductions), decoding each
// through tmp.
//
//zinf:hotpath
func (w *collCtx) reduceHalfShard(d []payload, acc, tmp []float32) {
	clear(acc)
	for _, cb := range d {
		w.codec.DecodeHalf(tmp, cb.hsrc)
		tensor.Axpy(1, tmp, acc)
	}
}

// reduceHalfInto computes one destination of a half reduction: the
// rank-order fp32 sum of every part, rounded to binary16 into dst. dst may
// be one part itself (the in-place all-reduce): every addend is read before
// dst is written.
//
//zinf:hotpath
func (w *collCtx) reduceHalfInto(d []payload, dst []tensor.Half) {
	acc := w.fscratch.Get(len(dst))
	tmp := w.fscratch.Get(len(dst))
	w.reduceHalfShard(d, acc, tmp)
	w.codec.EncodeHalf(dst, acc)
	w.fscratch.Put(acc)
	w.fscratch.Put(tmp)
}

// reduceHalfDecodeInto is reduceHalfInto with the rounded sum delivered as
// float32: one destination of the reduce-scatter, or the root's of the
// rooted reduce. It accumulates in dst itself, which no other rank reads,
// and then rounds dst through binary16 in place.
//
//zinf:hotpath
func (w *collCtx) reduceHalfDecodeInto(d []payload, dst []float32) {
	tmp := w.fscratch.Get(len(dst))
	w.reduceHalfShard(d, dst, tmp)
	w.fscratch.Put(tmp)
	enc := w.hscratch.Get(len(dst))
	w.codec.EncodeHalf(enc, dst)
	w.codec.DecodeHalf(dst, enc)
	w.hscratch.Put(enc)
}

// ReduceHalfDecode reduces binary16 contributions to root: every rank's src
// (all equal length) is decoded to float32 and summed in rank order with
// float32 accumulation, the total is rounded through binary16 (exactly as
// the reduce-scatter stores it) and delivered as float32 into root's dst.
// dst is ignored on non-root ranks (may be nil); on root len(dst) must
// equal len(src). This is the gradient-reduction primitive of the
// owner-rank-broadcast partitioning strategy (Fig. 6c's baseline): the sum
// per element is identical to ReduceScatterHalfDecode's, so the two
// strategies train bit-identically.
//
//zinf:hotpath
func (c *Comm) ReduceHalfDecode(dst []float32, src []tensor.Half, root int) {
	t := c.ReduceHalfDecodeAsync(dst, src, root)
	t.Wait()
}

// AllReduceHalf sums binary16 buffers elementwise across ranks with float32
// accumulation (rank order) and re-encodes the total to binary16 into every
// rank's buf. Element for element it is ReduceScatterHalfDecode's sum and
// rounding, which is what makes DDP and ZeRO gradient paths bit-equal.
//
//zinf:hotpath
func (c *Comm) AllReduceHalf(buf []tensor.Half) {
	t := c.AllReduceHalfAsync(buf)
	t.Wait()
}

// AllReduceScalar sums one float64 across ranks and returns the total on
// every rank. Used for loss aggregation and overflow flags; no rank returns
// before every rank has entered, so it is also the world's barrier.
//
//zinf:hotpath
func (c *Comm) AllReduceScalar(v float64) float64 {
	t := c.issue(opAllReduceScalar, 0, payload{v: v})
	return t.wait()
}

// AllReduceMax returns the maximum of v across ranks on every rank.
//
//zinf:hotpath
func (c *Comm) AllReduceMax(v float64) float64 {
	t := c.issue(opAllReduceMax, 0, payload{v: v})
	return t.wait()
}
