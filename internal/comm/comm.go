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
	"sync"
	"time"

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

// computeFns dispatches the data movement for each kind. The functions are
// package-level so issuing a collective never builds a closure.
var computeFns = [opKindCount]func(w *collCtx, o *op){
	opBroadcastHalf:           computeBroadcastHalf,
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
// its one rank's goroutine). New fixes codec and topo through configure
// before any rank runs; nothing writes them afterwards.
type collCtx struct {
	size int

	// fscratch/hscratch serve the reductions' accumulator/decode/encode
	// buffers. The arenas carry their own locks, so transport-side reader
	// goroutines may share them with compute.
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
	w.account(o.kind, o.contrib[0])
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

// BroadcastHalf copies root's binary16 buf into every rank's buf (all equal
// length): the parameter gather of the owner-rank-broadcast partitioning
// strategy (Fig. 6c's baseline).
//
//zinf:hotpath
func (c *Comm) BroadcastHalf(buf []tensor.Half, root int) {
	t := c.BroadcastHalfAsync(buf, root)
	t.Wait()
}

//zinf:hotpath
func computeBroadcastHalf(w *collCtx, o *op) {
	src := o.contrib[o.root].hdst
	for r := range o.contrib {
		if r == o.root {
			continue
		}
		copy(o.contrib[r].hdst, src)
	}
}

// AllGatherHalfDecode gathers binary16 shards and delivers them decoded:
// every rank contributes a binary16 shard (all equal length), each shard is
// decoded to float32 exactly once, and the decoded shards are concatenated
// into every rank's dst in rank order. What crosses a link is fp16; the
// caller never holds a full-size fp16 buffer. The engines' parameter gathers
// under 1/dp slicing run on this. len(dst) must be Size()*len(src).
//
//zinf:hotpath
func (c *Comm) AllGatherHalfDecode(dst []float32, src []tensor.Half) {
	t := c.AllGatherHalfDecodeAsync(dst, src)
	t.Wait()
}

//zinf:hotpath
func computeAllGatherHalfDecode(w *collCtx, o *op) {
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

// gatherHalfDecodeInto is one destination of the allgather+decode where
// shards arrive still encoded (the socket transport: fp16 is what crosses
// the link). computeAllGatherHalfDecode decodes each shard once for all
// destinations instead; the LUT decode is exact, so both deliver the same
// bytes.
//
//zinf:hotpath
func (w *collCtx) gatherHalfDecodeInto(o *op, dst []float32) {
	n := len(o.contrib[0].hsrc)
	for r := range o.contrib {
		w.codec.DecodeHalf(dst[r*n:(r+1)*n], o.contrib[r].hsrc)
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

//zinf:hotpath
func computeAllGatherEncodeHalf(w *collCtx, o *op) {
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

// gatherHalfInto concatenates every contribution's hsrc into dst in rank
// order: one destination of an allgather whose shards arrive already
// encoded (the socket transport's AllGatherEncodeHalf).
//
//zinf:hotpath
func gatherHalfInto(o *op, dst []tensor.Half) {
	n := len(o.contrib[0].hsrc)
	for r := range o.contrib {
		copy(dst[r*n:(r+1)*n], o.contrib[r].hsrc)
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

//zinf:hotpath
func computeReduceScatterHalfDecode(w *collCtx, o *op) {
	n := len(o.contrib[0].fdst)
	for r := range o.contrib {
		w.reduceHalfDecodeInto(o, o.contrib[r].fdst, r*n)
	}
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

// reduceHalfDecodeInto is reduceHalfInto with the rounded sum delivered as
// float32: one destination of the reduce-scatter, or the root's of the
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
// rank's buf. Element for element it is ReduceScatterHalfDecode's sum and
// rounding, which is what makes DDP and ZeRO gradient paths bit-equal.
//
//zinf:hotpath
func (c *Comm) AllReduceHalf(buf []tensor.Half) {
	t := c.AllReduceHalfAsync(buf)
	t.Wait()
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

// AllReduceScalar sums one float64 across ranks and returns the total on
// every rank. Used for loss aggregation and overflow flags; no rank returns
// before every rank has entered, so it is also the world's barrier.
//
//zinf:hotpath
func (c *Comm) AllReduceScalar(v float64) float64 {
	t := c.issue(opAllReduceScalar, 0, payload{v: v})
	return t.wait()
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
	t := c.issue(opAllReduceMax, 0, payload{v: v})
	return t.wait()
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
