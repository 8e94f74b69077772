package comm

import (
	"fmt"

	"repro/internal/tensor"
)

// Ticket tracks one issued collective. Wait blocks until every rank has
// entered the matching call and the data movement has completed; it must
// eventually be called, from the issuing rank's goroutine (extra Wait calls
// are no-ops).
//
// A collective occupies a slot in the communicator's sequence at issue time
// — the issuing rank's contribution is registered immediately, with no
// goroutine spawned — so the SPMD contract extends naturally: every rank
// must issue the same collectives in the same order, but may overlap any
// amount of compute (or further collectives) between issuing and waiting.
// Buffers handed to a collective must stay untouched until Wait returns.
//
// Ticket is a small value type (engines embed it in pooled in-flight
// records); the zero Ticket is a completed ticket. It carries a branch per
// transport rather than an interface so issuing never boxes.
type Ticket struct {
	// In-memory transport: the in-flight op this rank still has to leave.
	mt *memTransport
	op *op
	// Socket transport: completion means advancing the ordered pending
	// queue through seq.
	st  *sockTransport
	seq uint64
}

// Wait blocks until the collective has completed on all ranks.
//
//zinf:hotpath
func (t *Ticket) Wait() { t.wait() }

// wait is Wait returning the collective's scalar result (0 for a data
// collective or a ticket already waited).
//
//zinf:hotpath
func (t *Ticket) wait() (res float64) {
	switch {
	case t.op != nil:
		mt := t.mt
		mt.mu.Lock()
		for !t.op.computed {
			t.op.done.Wait()
		}
		res = t.op.result
		mt.leaveLocked(t.seq, t.op)
		mt.mu.Unlock()
		t.op, t.mt = nil, nil
	case t.st != nil:
		res = t.st.advance(t.seq)
		t.st = nil
	}
	return res
}

// issue registers this rank's next collective with the transport: the one
// path every collective, synchronous or not, takes.
//
//zinf:hotpath
func (c *Comm) issue(kind opKind, root int, pl payload) Ticket {
	seq := c.seq
	c.seq++
	return c.world.t.issue(c.rank, seq, kind, root, pl)
}

// BroadcastHalfAsync starts a BroadcastHalf; buf must not be touched until
// the ticket completes. This is the owner-rank-broadcast partitioning
// strategy's parameter-prefetch primitive.
//
//zinf:hotpath
func (c *Comm) BroadcastHalfAsync(buf []tensor.Half, root int) Ticket {
	return c.issue(opBroadcastHalf, root, payload{hdst: buf})
}

// AllGatherHalfDecodeAsync starts an AllGatherHalfDecode; dst and src must
// not be touched until the ticket completes. This is the engines'
// parameter-prefetch primitive under 1/dp slicing.
//
//zinf:hotpath
func (c *Comm) AllGatherHalfDecodeAsync(dst []float32, src []tensor.Half) Ticket {
	if len(dst) != c.Size()*len(src) {
		panic(fmt.Sprintf("comm: allgatherhalfdecode dst len %d != size %d * src len %d", len(dst), c.Size(), len(src)))
	}
	return c.issue(opAllGatherHalfDecode, 0, payload{fdst: dst, hsrc: src})
}

// ReduceScatterHalfDecodeAsync starts a ReduceScatterHalfDecode; dst and src
// must not be touched until the ticket completes.
//
//zinf:hotpath
func (c *Comm) ReduceScatterHalfDecodeAsync(dst []float32, src []tensor.Half) Ticket {
	if len(src) != c.Size()*len(dst) {
		panic(fmt.Sprintf("comm: reducescatterhalfdecode src len %d != size %d * dst len %d", len(src), c.Size(), len(dst)))
	}
	return c.issue(opReduceScatterHalfDecode, 0, payload{fdst: dst, hsrc: src})
}

// ReduceHalfDecodeAsync starts a ReduceHalfDecode (dst nil on non-root
// ranks); dst and src must not be touched until the ticket completes.
//
//zinf:hotpath
func (c *Comm) ReduceHalfDecodeAsync(dst []float32, src []tensor.Half, root int) Ticket {
	if c.rank == root && len(dst) != len(src) {
		panic(fmt.Sprintf("comm: reducehalfdecode root dst len %d != src len %d", len(dst), len(src)))
	}
	return c.issue(opReduceHalfDecode, root, payload{fdst: dst, hsrc: src})
}

// AllReduceHalfAsync starts an AllReduceHalf; buf must not be touched until
// the ticket completes. This is the replicated stages' gradient-reduction
// primitive.
//
//zinf:hotpath
func (c *Comm) AllReduceHalfAsync(buf []tensor.Half) Ticket {
	return c.issue(opAllReduceHalf, 0, payload{hdst: buf})
}
