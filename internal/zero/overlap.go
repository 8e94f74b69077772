package zero

import (
	"repro/internal/comm"
	"repro/internal/overlap"
	"repro/internal/tensor"
)

// This file is the communication half of the overlap-centric design (paper
// Sec. 6.2): a gather-trace-driven prefetcher that issues the next k
// parameters' gathers during the current module's compute, and the drain of
// the asynchronously launched gradient reductions, a fixed window of which
// stay in flight. Both are bit-identical to the synchronous paths — the
// async collectives keep rank-order accumulation — so overlap is purely a
// wall-clock knob.

// inflightGather is one speculatively issued gather. shard is the tier's
// source buffer, kept alive (and untouched) until the ticket completes. The
// destination is the fused allgather+decode's float32 buffer under 1/dp
// slicing (full) or the fp16 view under owner-rank broadcast (fullH) — at
// most one is non-nil. It is stored by value in the pstate so tracking it
// allocates nothing; both destinations nil means no gather is in flight.
type inflightGather struct {
	ticket comm.Ticket
	full   []float32
	fullH  []tensor.Half
	shard  []tensor.Half
}

// inFlight reports whether a gather is speculatively running.
//
//zinf:hotpath
func (f *inflightGather) inFlight() bool { return f.full != nil || f.fullH != nil }

// gatherPrefetcher speculates parameter gathers along the learned gather
// trace. On a tier that reads shards ahead it composes with those reads: it
// takes a shard whose read has matured (Tier.Ready) and chains the gather
// onto it, so the device and interconnect stages of the same parameter
// pipeline back to back.
//
// Every issue decision is a pure function of the observed gather sequence —
// identical on every SPMD rank — so the asynchronously issued collectives
// stay matched rank to rank (the property that makes speculation safe on
// the sequence-numbered rendezvous substrate).
type gatherPrefetcher struct {
	e     *ShardedEngine
	depth int

	outstanding int
	inflight    []*pstate // pstates whose spec may be set, for the drain
}

// issue launches gathers for upcoming trace entries, in trace order, within
// the depth budget: allgathers of the 1/dp slices, or broadcasts from the
// owning rank under PartitionBroadcast (issued unconditionally on every
// rank). It stops at the first entry whose shard the tier cannot serve yet,
// so the speculated gathers are always the next ones due and none holds its
// gathered buffer and depth budget far ahead of its use.
//
//zinf:hotpath
func (pf *gatherPrefetcher) issue() {
	e := pf.e
	e.trace.Each(func(ps *pstate) bool {
		if pf.outstanding >= pf.depth {
			return false
		}
		if ps.spec.inFlight() || ps.p.Materialized() {
			return true
		}
		if !e.tier.Ready(ps.idx, e.Gathers) {
			return false
		}
		if ps.bcastRoot >= 0 {
			fullH := e.bcastFullH(ps)
			ps.spec = inflightGather{ticket: e.c.BroadcastHalfAsync(fullH, ps.bcastRoot), fullH: fullH}
		} else {
			shard := e.shard(ps)
			full := e.sc.F32.Get(ps.shardLen * e.c.Size())
			ps.spec = inflightGather{ticket: e.c.AllGatherHalfDecodeAsync(full, shard), full: full, shard: shard}
		}
		pf.inflight = append(pf.inflight, ps)
		pf.outstanding++
		e.PrefetchIssued++
		return true
	})
}

// drain waits out the speculative gathers the micro-batch never consumed
// and recycles their buffers.
//
//zinf:hotpath
func (pf *gatherPrefetcher) drain() {
	e := pf.e
	for _, ps := range pf.inflight {
		if f := &ps.spec; f.inFlight() {
			f.ticket.Wait()
			e.sc.F32.Put(f.full)
			e.sc.F16.Put(f.fullH)
			e.tier.Done(f.shard)
			*f = inflightGather{}
		}
	}
	pf.inflight = pf.inflight[:0]
	pf.outstanding = 0
}

// reduceWindow bounds the asynchronous gradient reductions in flight: when
// a backward hook launches one past it, the oldest is waited and folded
// before compute resumes. Each pending reduction pins a padded fp16 copy of
// its parameter's whole gradient, so an unbounded queue would hold a
// whole-model fp16 gradient (2Ψ bytes) at the end of backward instead of
// the 2Ψ/Nd partition the stage-3 memory model promises (paper Secs. 3-4).
// A few reductions in flight are enough to hide their latency behind the
// next modules' backward compute.
const reduceWindow = 4

// drainReduces waits out the asynchronous gradient reductions until at most
// keep remain, via the shared issue-order fold (internal/overlap.Drain),
// accumulating into the fp32 gradient shards exactly as the synchronous
// path would. reduceGrad calls it with reduceWindow after each launch; every
// micro-batch boundary drains to zero, which is also the barrier before the
// overflow check.
//
//zinf:hotpath
func (e *ShardedEngine) drainReduces(keep int) {
	e.pendingReduces = overlap.Drain(e.pendingReduces, keep, func(ps *pstate, gs []float32, gh []tensor.Half) {
		e.foldGradShard(ps, gs, gh)
	})
}
