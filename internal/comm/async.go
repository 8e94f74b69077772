package comm

import (
	"fmt"

	"repro/internal/tensor"
)

// Ticket tracks one issued collective. Wait blocks until every rank has
// entered the matching call and this rank's destination is complete; it must
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
// Ticket is a small value type (engines embed it in pooled records); the
// zero Ticket is a completed ticket.
type Ticket struct {
	c   *Comm
	seq uint64
}

// pendingOp is one issued, not yet completed collective of a rank: what the
// rank passed and, on the in-memory transport, the shared descriptor its
// peers published into (nil on the mesh).
type pendingOp struct {
	seq  uint64
	kind opKind
	root int
	pl   payload
	o    *op
}

// Wait blocks until the collective has completed on this rank.
//
//zinf:hotpath
func (t *Ticket) Wait() { t.wait() }

// wait is Wait returning the collective's scalar result (0 for a data
// collective or a ticket already waited).
//
//zinf:hotpath
func (t *Ticket) wait() (res float64) {
	if t.c != nil {
		res = t.c.advance(t.seq)
		t.c = nil
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
	o := c.world.t.issue(c.rank, seq, kind, root, pl)
	c.pending = append(c.pending, pendingOp{seq: seq, kind: kind, root: root, pl: pl, o: o})
	return Ticket{c: c, seq: seq}
}

// advance completes this rank's pending collectives in sequence order
// through target and returns the last one's scalar result (a synchronous
// scalar collective waits at once, so that is its own; 0 when target had
// already completed). Every rank completes in the same order whatever order
// it waits its tickets in: completing only the awaited one could leave two
// ranks each blocked on a collective the other has not reached.
//
//zinf:hotpath
func (c *Comm) advance(target uint64) (res float64) {
	for c.phead < len(c.pending) && c.pending[c.phead].seq <= target {
		p := c.pending[c.phead]
		c.pending[c.phead] = pendingOp{}
		c.phead++
		if c.phead == len(c.pending) {
			c.pending = c.pending[:0]
			c.phead = 0
		}
		res = c.world.t.complete(c.rank, p)
	}
	return res
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
