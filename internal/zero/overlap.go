package zero

import (
	"repro/internal/comm"
	"repro/internal/tensor"
)

// This file is the communication half of the overlap-centric design (paper
// Sec. 6.2): a gather-trace-driven prefetcher that issues the next k
// parameters' gathers during the current module's compute, and the drain of
// the asynchronously launched gradient reductions, a fixed window of which
// stay in flight. Both are bit-identical to the synchronous paths — the
// async collectives keep rank-order accumulation — so overlap is purely a
// wall-clock knob.

// inflightGather is one issued parameter gather (issueGather). shard is the
// tier's source buffer, kept alive (and untouched) until the ticket
// completes. The destination is the fused allgather+decode's float32 buffer
// under 1/dp slicing (full) or the fp16 view under owner-rank broadcast
// (fullH) — at most one is non-nil. It is stored by value in the pstate so
// tracking it allocates nothing; both destinations nil means no gather is in
// flight. Only a speculative gather stays in flight past the call that issued
// it.
type inflightGather struct {
	ticket comm.Ticket
	full   []float32
	fullH  []tensor.Half
	shard  []tensor.Half
}

// inFlight reports whether a gather is issued and not yet awaited.
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
		e.issueGather(ps)
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
		if ps.spec.inFlight() {
			e.sc.F32.Put(e.awaitGather(ps))
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

// pendingReduce is one issued gradient reduction: its ticket, the fp32
// destination shard (nil on non-owner ranks under PartitionBroadcast) and the
// padded fp16 gradient source, both kept alive until the ticket completes.
type pendingReduce struct {
	ps     *pstate
	ticket comm.Ticket
	gs     []float32
	gh     []tensor.Half
}

// drainReduces waits out the oldest issued gradient reductions, in issue
// order, until at most keep remain, folding each into its fp32 gradient
// shard. Issue order is exactly the accumulation sequence of waiting every
// reduction at once, which is what keeps overlapped trajectories
// bit-identical. reduceGrad calls it after each launch — with reduceWindow
// under Overlap, with 0 otherwise — and every micro-batch boundary drains to
// zero, which is also the barrier before the overflow check. Vacated entries
// are zeroed so the queue's spare capacity pins no buffers.
//
//zinf:hotpath
func (e *ShardedEngine) drainReduces(keep int) {
	n := len(e.pendingReduces) - keep
	if n <= 0 {
		return
	}
	for i := range e.pendingReduces[:n] {
		r := &e.pendingReduces[i]
		r.ticket.Wait()
		e.foldGradShard(r.ps, r.gs, r.gh)
	}
	left := copy(e.pendingReduces, e.pendingReduces[n:])
	clear(e.pendingReduces[left:])
	e.pendingReduces = e.pendingReduces[:left]
}
