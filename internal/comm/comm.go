// Package comm provides the collective-communication substrate for the
// ZeRO-Infinity reproduction. A World of n ranks runs SPMD code over a
// pluggable Transport; collectives (broadcast, allgather, reduce-scatter,
// allreduce, gather, barrier) have the same data semantics as NCCL's.
//
// Collective matching follows the SPMD contract: every rank must invoke the
// same sequence of collectives on the same communicator. Each call is matched
// by a per-rank sequence number, so the implementation is insensitive to
// goroutine scheduling and safe under the race detector. Reductions
// accumulate in rank order with float32 arithmetic, making results
// deterministic and enabling bit-exact engine-equivalence tests.
//
// Two transports implement the data plane (see transport.go): the reference
// in-memory rendezvous (ranks are goroutines in one process) and a TCP
// socket transport (each rank is its own OS process, launched by
// cmd/zinf-launch). Both compute every destination with the same
// per-destination kernels over a shared collCtx — the in-memory transport's
// last arriver for every rank, a socket rank for itself — so the fp32
// rank-order accumulation, and therefore the training trajectory, is
// bit-identical across transports.
//
// The substrate is allocation-free in steady state: in-flight op descriptors
// are pooled and reused, per-rank contributions are flat payload structs
// (no interface boxing), the data-movement functions are package-level (no
// closure captures), and reduction/encode scratch comes from a context-owned
// size-classed arena. Fused convert+collective paths
// (AllGatherEncodeHalf, ReduceScatterHalfDecode) additionally remove the
// intermediate full-size fp16 pass their two-call forms needed.
package comm

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/mem"
	"repro/internal/tensor"
)

// opKind enumerates the collective types. An enum (rather than the previous
// per-call formatted string) keeps the mismatch check allocation-free.
type opKind uint8

const (
	opBarrier opKind = iota
	opBroadcast
	opAllGather
	opReduceScatter
	opAllReduce
	opGather
	opBroadcastHalf
	opAllGatherHalf
	opReduceScatterHalf
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
	"barrier", "broadcast", "allgather", "reducescatter", "allreduce",
	"gather", "broadcasthalf", "allgatherhalf", "reducescatterhalf",
	"allreducehalf", "allgatherencodehalf", "allgatherhalfdecode",
	"reducescatterhalfdecode", "reducehalfdecode", "allreducescalar",
	"allreducemax",
}

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

// computeFns dispatches the data movement for each kind. The functions are
// package-level so issuing a collective never builds a closure.
var computeFns = [...]func(w *collCtx, o *op){
	opBarrier:                 func(*collCtx, *op) {},
	opBroadcast:               computeBroadcast,
	opAllGather:               computeAllGather,
	opReduceScatter:           computeReduceScatter,
	opAllReduce:               computeAllReduce,
	opGather:                  computeGather,
	opBroadcastHalf:           computeBroadcastHalf,
	opAllGatherHalf:           computeAllGatherHalf,
	opReduceScatterHalf:       computeReduceScatterHalf,
	opAllReduceHalf:           computeAllReduceHalf,
	opAllGatherEncodeHalf:     computeAllGatherEncodeHalf,
	opAllGatherHalfDecode:     computeAllGatherHalfDecode,
	opReduceScatterHalfDecode: computeReduceScatterHalfDecode,
	opReduceHalfDecode:        computeReduceHalfDecode,
	opAllReduceScalar:         computeAllReduceScalar,
	opAllReduceMax:            computeAllReduceMax,
}

// collCtx is the transport-neutral collective execution context: the state
// the compute kernels need, factored out of the transports so every fabric
// runs the exact same data movement and fp32 rank-order accumulation.
// Synchronization is the embedding transport's job (the in-memory transport
// serializes compute under its world mutex; a socket transport computes on
// its one rank's goroutine).
type collCtx struct {
	size int

	// fscratch/hscratch serve the reductions' accumulator/decode/encode
	// buffers. The arenas carry their own locks, so transport-side reader
	// goroutines may share them with compute.
	fscratch *mem.Arena[float32]
	hscratch *mem.Arena[tensor.Half]

	// codec dispatches the binary16 conversions the *Half collectives
	// perform. Every backend is bit-identical, so this is purely a speed
	// knob (reference by default).
	codec tensor.Backend

	// topo, when set, groups ranks into nodes: the data-moving collectives
	// decompose hierarchically (intra-node phase, then inter-node phase
	// among node leaders) and every collective's byte flow and simulated
	// transfer cost are accounted per link class in traffic. See
	// topology.go.
	topo    *Topology
	traffic [opKindCount]TrafficStats
}

// computeMeasured runs o's data movement plus modeled accounting and folds
// in the measured counters: wall-clock compute time, and — on this shared-
// memory path, where the "wire" is the copies the kernel itself performs —
// measured bytes equal to the modeled bytes the op added. The socket
// transport accounts its measured side separately from real frame sizes.
//
//zinf:hotpath
func (w *collCtx) computeMeasured(o *op) {
	st := &w.traffic[o.kind]
	preIntra, preInter := st.IntraBytes, st.InterBytes
	start := time.Now()
	computeFns[o.kind](w, o)
	w.account(o.kind, o.root, o.contrib[0])
	st.MeasSeconds += time.Since(start).Seconds()
	st.MeasIntraBytes += st.IntraBytes - preIntra
	st.MeasInterBytes += st.InterBytes - preInter
}

// op is one in-flight collective. On the in-memory transport the last rank
// to arrive performs the data movement for every destination and the last
// rank to leave returns the descriptor to the free pool. A socket rank fills
// its one descriptor with the part of each contribution its own destination
// needs (its slice of a reduce-scatter, every shard of an allgather) and
// runs the per-destination kernels below over it.
type op struct {
	kind          opKind
	root          int
	arrived, left int
	computed      bool
	done          *sync.Cond // in-memory transport: shares the world mutex
	contrib       []payload  // per-rank argument, indexed by rank
	result        float64    // scalar collectives' result
}

// Barrier blocks until every rank has entered the barrier.
//
//zinf:hotpath
func (c *Comm) Barrier() {
	c.rendezvous(opBarrier, 0, payload{})
}

// Broadcast copies root's buf into every rank's buf. All bufs must have the
// same length.
//
//zinf:hotpath
func (c *Comm) Broadcast(buf []float32, root int) {
	c.rendezvous(opBroadcast, root, payload{fdst: buf})
}

//zinf:hotpath
func computeBroadcast(w *collCtx, o *op) {
	if w.hier() {
		computeBroadcastHier(w, o)
		return
	}
	src := o.contrib[o.root].fdst
	for r := range o.contrib {
		if r == o.root {
			continue
		}
		dst := o.contrib[r].fdst
		if len(dst) != len(src) {
			panic(fmt.Sprintf("comm: broadcast length mismatch: root %d, rank %d", len(src), len(dst)))
		}
		copy(dst, src)
	}
}

// AllGather concatenates every rank's src (all equal length) into dst in rank
// order on every rank. len(dst) must be Size()*len(src).
//
//zinf:hotpath
func (c *Comm) AllGather(dst, src []float32) {
	if len(dst) != c.Size()*len(src) {
		panic(fmt.Sprintf("comm: allgather dst len %d != size %d * src len %d", len(dst), c.Size(), len(src)))
	}
	c.rendezvous(opAllGather, 0, payload{fdst: dst, fsrc: src})
}

//zinf:hotpath
func computeAllGather(w *collCtx, o *op) {
	if w.hier() {
		computeAllGatherHier(w, o)
		return
	}
	for i := range o.contrib {
		gatherInto(o, o.contrib[i].fdst)
	}
}

// gatherInto concatenates every contribution's fsrc into dst in rank order:
// one destination of an allgather, or the root's of a rooted gather.
//
//zinf:hotpath
func gatherInto(o *op, dst []float32) {
	n := len(o.contrib[0].fsrc)
	for r := range o.contrib {
		copy(dst[r*n:(r+1)*n], o.contrib[r].fsrc)
	}
}

// ReduceScatter sums the ranks' src buffers elementwise (in rank order) and
// scatters the result: rank r receives elements [r*len(dst), (r+1)*len(dst))
// of the sum. len(src) must be Size()*len(dst).
//
//zinf:hotpath
func (c *Comm) ReduceScatter(dst, src []float32) {
	if len(src) != c.Size()*len(dst) {
		panic(fmt.Sprintf("comm: reducescatter src len %d != size %d * dst len %d", len(src), c.Size(), len(dst)))
	}
	c.rendezvous(opReduceScatter, 0, payload{fdst: dst, fsrc: src})
}

//zinf:hotpath
func computeReduceScatter(w *collCtx, o *op) {
	n := len(o.contrib[0].fdst)
	for r := range o.contrib {
		reduceInto(o, o.contrib[r].fdst, r*n)
	}
}

// reduceInto computes one destination of a float32 reduction: dst becomes
// the rank-order fp32 sum of every contribution's fsrc[at:at+len(dst)]. dst
// must not alias a contribution.
//
//zinf:hotpath
func reduceInto(o *op, dst []float32, at int) {
	n := len(dst)
	copy(dst, o.contrib[0].fsrc[at:at+n])
	for _, cb := range o.contrib[1:] {
		tensor.Axpy(1, cb.fsrc[at:at+n], dst)
	}
}

// AllReduce sums every rank's buf elementwise (in rank order); each rank's
// buf holds the total afterwards.
//
//zinf:hotpath
func (c *Comm) AllReduce(buf []float32) {
	c.rendezvous(opAllReduce, 0, payload{fdst: buf})
}

//zinf:hotpath
func computeAllReduce(w *collCtx, o *op) {
	n := len(o.contrib[0].fdst)
	sum := w.fscratch.Get(n)
	copy(sum, o.contrib[0].fdst)
	for _, cb := range o.contrib[1:] {
		if len(cb.fdst) != n {
			panic("comm: allreduce length mismatch")
		}
		tensor.Axpy(1, cb.fdst, sum)
	}
	for i := range o.contrib {
		copy(o.contrib[i].fdst, sum)
	}
	w.fscratch.Put(sum)
}

// Gather concatenates every rank's src into root's dst in rank order. dst is
// ignored on non-root ranks (may be nil). On root, len(dst) must be
// Size()*len(src).
//
//zinf:hotpath
func (c *Comm) Gather(dst, src []float32, root int) {
	c.rendezvous(opGather, root, payload{fdst: dst, fsrc: src})
}

//zinf:hotpath
func computeGather(w *collCtx, o *op) {
	rd := o.contrib[o.root].fdst
	n := len(o.contrib[o.root].fsrc)
	if len(rd) != len(o.contrib)*n {
		panic("comm: gather root dst length mismatch")
	}
	gatherInto(o, rd)
}

// AllGatherHalf is AllGather over binary16 payloads; data moves bit-exactly.
//
//zinf:hotpath
func (c *Comm) AllGatherHalf(dst, src []tensor.Half) {
	if len(dst) != c.Size()*len(src) {
		panic("comm: allgatherhalf length mismatch")
	}
	c.rendezvous(opAllGatherHalf, 0, payload{hdst: dst, hsrc: src})
}

//zinf:hotpath
func computeAllGatherHalf(w *collCtx, o *op) {
	if w.hier() {
		computeAllGatherHalfHier(w, o)
		return
	}
	for i := range o.contrib {
		gatherHalfInto(o, o.contrib[i].hdst)
	}
}

// gatherHalfInto is gatherInto over binary16 shards.
//
//zinf:hotpath
func gatherHalfInto(o *op, dst []tensor.Half) {
	n := len(o.contrib[0].hsrc)
	for r := range o.contrib {
		copy(dst[r*n:(r+1)*n], o.contrib[r].hsrc)
	}
}

// BroadcastHalf copies root's binary16 buf into every rank's buf.
//
//zinf:hotpath
func (c *Comm) BroadcastHalf(buf []tensor.Half, root int) {
	c.rendezvous(opBroadcastHalf, root, payload{hdst: buf})
}

//zinf:hotpath
func computeBroadcastHalf(w *collCtx, o *op) {
	if w.hier() {
		computeBroadcastHalfHier(w, o)
		return
	}
	src := o.contrib[o.root].hdst
	for r := range o.contrib {
		if r == o.root {
			continue
		}
		copy(o.contrib[r].hdst, src)
	}
}

// ReduceScatterHalf reduce-scatters binary16 gradients: contributions are
// decoded to float32, summed in rank order with float32 accumulation (the
// fp32-accumulate behaviour of tensor-core reductions), and each rank's shard
// is re-encoded to binary16 into dst.
//
//zinf:hotpath
func (c *Comm) ReduceScatterHalf(dst, src []tensor.Half) {
	if len(src) != c.Size()*len(dst) {
		panic("comm: reducescatterhalf length mismatch")
	}
	c.rendezvous(opReduceScatterHalf, 0, payload{hdst: dst, hsrc: src})
}

// reduceHalfShard computes the fp32 rank-order sum of every contribution's
// hsrc[at:at+len(acc)] into acc (the shared accumulation kernel of the half
// reductions).
//
//zinf:hotpath
func (w *collCtx) reduceHalfShard(o *op, at int, acc, tmp []float32) {
	n := len(acc)
	clear(acc)
	for _, cb := range o.contrib {
		w.codec.DecodeHalf(tmp, cb.hsrc[at:at+n])
		tensor.Axpy(1, tmp, acc)
	}
}

//zinf:hotpath
func computeReduceScatterHalf(w *collCtx, o *op) {
	n := len(o.contrib[0].hdst)
	for r := range o.contrib {
		w.reduceHalfInto(o, o.contrib[r].hdst, r*n)
	}
}

// reduceHalfInto computes one destination of a half reduction: the
// rank-order fp32 sum of every contribution's hsrc[at:at+len(dst)], rounded
// to binary16 into dst. dst may be one contribution's own slice (the
// in-place all-reduce): every addend is read before dst is written.
//
//zinf:hotpath
func (w *collCtx) reduceHalfInto(o *op, dst []tensor.Half, at int) {
	acc := w.fscratch.Get(len(dst))
	tmp := w.fscratch.Get(len(dst))
	w.reduceHalfShard(o, at, acc, tmp)
	w.codec.EncodeHalf(dst, acc)
	w.fscratch.Put(acc)
	w.fscratch.Put(tmp)
}

// ReduceScatterHalfDecode is the fused ReduceScatterHalf→DecodeHalf path:
// the reduced shard is rounded through binary16 (exactly as
// ReduceScatterHalf stores it) and delivered directly as float32 into dst,
// eliminating the caller's intermediate fp16 shard buffer and decode pass.
// Bit-identical to ReduceScatterHalf followed by DecodeHalf.
//
//zinf:hotpath
func (c *Comm) ReduceScatterHalfDecode(dst []float32, src []tensor.Half) {
	if len(src) != c.Size()*len(dst) {
		panic("comm: reducescatterhalfdecode length mismatch")
	}
	c.rendezvous(opReduceScatterHalfDecode, 0, payload{fdst: dst, hsrc: src})
}

//zinf:hotpath
func computeReduceScatterHalfDecode(w *collCtx, o *op) {
	n := len(o.contrib[0].fdst)
	for r := range o.contrib {
		w.reduceHalfDecodeInto(o, o.contrib[r].fdst, r*n)
	}
}

// reduceHalfDecodeInto is reduceHalfInto with the rounded sum delivered as
// float32: one destination of the fused reduce-scatter, or the root's of the
// rooted reduce.
//
//zinf:hotpath
func (w *collCtx) reduceHalfDecodeInto(o *op, dst []float32, at int) {
	enc := w.hscratch.Get(len(dst))
	w.reduceHalfInto(o, enc, at)
	w.codec.DecodeHalf(dst, enc)
	w.hscratch.Put(enc)
}

// ReduceHalfDecode reduces binary16 contributions to root: every rank's src
// (all equal length) is decoded to float32 and summed in rank order with
// float32 accumulation, the total is rounded through binary16 (exactly as
// the reduce-scatter family stores it) and delivered as float32 into root's
// dst. dst is ignored on non-root ranks (may be nil); on root len(dst) must
// equal len(src). This is the gradient-reduction primitive of the
// owner-rank-broadcast partitioning strategy (Fig. 6c's baseline): the sum
// per element is identical to ReduceScatterHalfDecode's, so the two
// strategies train bit-identically.
//
//zinf:hotpath
func (c *Comm) ReduceHalfDecode(dst []float32, src []tensor.Half, root int) {
	if c.rank == root && len(dst) != len(src) {
		panic(fmt.Sprintf("comm: reducehalfdecode root dst len %d != src len %d", len(dst), len(src)))
	}
	c.rendezvous(opReduceHalfDecode, root, payload{fdst: dst, hsrc: src})
}

//zinf:hotpath
func computeReduceHalfDecode(w *collCtx, o *op) {
	n := len(o.contrib[0].hsrc)
	for _, cb := range o.contrib {
		if len(cb.hsrc) != n {
			panic("comm: reducehalfdecode length mismatch")
		}
	}
	w.reduceHalfDecodeInto(o, o.contrib[o.root].fdst, 0)
}

// AllReduceHalf sums binary16 buffers elementwise across ranks with float32
// accumulation (rank order) and re-encodes the total to binary16 into every
// rank's buf. Numerically identical to ReduceScatterHalf followed by
// AllGatherHalf, which is what makes DDP and ZeRO gradient paths bit-equal.
//
//zinf:hotpath
func (c *Comm) AllReduceHalf(buf []tensor.Half) {
	c.rendezvous(opAllReduceHalf, 0, payload{hdst: buf})
}

//zinf:hotpath
func computeAllReduceHalf(w *collCtx, o *op) {
	n := len(o.contrib[0].hdst)
	acc := w.fscratch.GetZeroed(n)
	tmp := w.fscratch.Get(n)
	for _, cb := range o.contrib {
		if len(cb.hdst) != n {
			panic("comm: allreducehalf length mismatch")
		}
		w.codec.DecodeHalf(tmp, cb.hdst)
		tensor.Axpy(1, tmp, acc)
	}
	enc := w.hscratch.Get(n)
	w.codec.EncodeHalf(enc, acc)
	for i := range o.contrib {
		copy(o.contrib[i].hdst, enc)
	}
	w.fscratch.Put(acc)
	w.fscratch.Put(tmp)
	w.hscratch.Put(enc)
}

// AllGatherEncodeHalf is the fused EncodeHalf→AllGatherHalf path: every
// rank contributes a float32 shard, each shard is rounded to binary16 once,
// and the encoded shards are concatenated into every rank's dst in rank
// order. Bit-identical to each rank encoding its shard and calling
// AllGatherHalf, without the per-rank intermediate fp16 shard buffer.
// len(dst) must be Size()*len(src).
//
//zinf:hotpath
func (c *Comm) AllGatherEncodeHalf(dst []tensor.Half, src []float32) {
	if len(dst) != c.Size()*len(src) {
		panic("comm: allgatherencodehalf length mismatch")
	}
	c.rendezvous(opAllGatherEncodeHalf, 0, payload{hdst: dst, fsrc: src})
}

//zinf:hotpath
func computeAllGatherEncodeHalf(w *collCtx, o *op) {
	if w.hier() {
		computeAllGatherEncodeHalfHier(w, o)
		return
	}
	n := len(o.contrib[0].fsrc)
	enc := w.hscratch.Get(n)
	for r := range o.contrib {
		w.codec.EncodeHalf(enc, o.contrib[r].fsrc)
		for i := range o.contrib {
			copy(o.contrib[i].hdst[r*n:(r+1)*n], enc)
		}
	}
	w.hscratch.Put(enc)
}

// AllGatherHalfDecode is the fused AllGatherHalf→DecodeHalf path — the
// gather-side mirror of AllGatherEncodeHalf: every rank contributes a
// binary16 shard, each shard is decoded to float32 exactly once, and the
// decoded shards are concatenated into every rank's dst in rank order.
// Bit-identical to AllGatherHalf followed by DecodeHalf (the decode LUT is
// exact), without the caller's full-size intermediate fp16 buffer and
// decode pass — the engines' parameter gathers run on this.
// len(dst) must be Size()*len(src).
//
//zinf:hotpath
func (c *Comm) AllGatherHalfDecode(dst []float32, src []tensor.Half) {
	if len(dst) != c.Size()*len(src) {
		panic(fmt.Sprintf("comm: allgatherhalfdecode dst len %d != size %d * src len %d", len(dst), c.Size(), len(src)))
	}
	c.rendezvous(opAllGatherHalfDecode, 0, payload{fdst: dst, hsrc: src})
}

//zinf:hotpath
func computeAllGatherHalfDecode(w *collCtx, o *op) {
	if w.hier() {
		computeAllGatherHalfDecodeHier(w, o)
		return
	}
	n := len(o.contrib[0].hsrc)
	dec := w.fscratch.Get(n)
	for r := range o.contrib {
		w.codec.DecodeHalf(dec, o.contrib[r].hsrc)
		for i := range o.contrib {
			copy(o.contrib[i].fdst[r*n:(r+1)*n], dec)
		}
	}
	w.fscratch.Put(dec)
}

// gatherHalfDecodeInto is one destination of the fused allgather+decode
// where shards arrive still encoded (the socket transport: fp16 is what
// crosses the link). computeAllGatherHalfDecode decodes each shard once for
// all destinations instead; the LUT decode is exact, so both deliver the
// same bytes.
//
//zinf:hotpath
func (w *collCtx) gatherHalfDecodeInto(o *op, dst []float32) {
	n := len(o.contrib[0].hsrc)
	for r := range o.contrib {
		w.codec.DecodeHalf(dst[r*n:(r+1)*n], o.contrib[r].hsrc)
	}
}

// AllReduceScalar sums one float64 across ranks and returns the total on
// every rank. Used for loss aggregation and overflow flags.
//
//zinf:hotpath
func (c *Comm) AllReduceScalar(v float64) float64 {
	return c.rendezvous(opAllReduceScalar, 0, payload{v: v})
}

//zinf:hotpath
func computeAllReduceScalar(w *collCtx, o *op) {
	var s float64
	for i := range o.contrib {
		s += o.contrib[i].v
	}
	o.result = s
}

// AllReduceMax returns the maximum of v across ranks on every rank.
//
//zinf:hotpath
func (c *Comm) AllReduceMax(v float64) float64 {
	return c.rendezvous(opAllReduceMax, 0, payload{v: v})
}

//zinf:hotpath
func computeAllReduceMax(w *collCtx, o *op) {
	m := o.contrib[0].v
	for _, cb := range o.contrib[1:] {
		if cb.v > m {
			m = cb.v
		}
	}
	o.result = m
}
