package comm

import (
	"fmt"
	"sync"
)

// memTransport is the reference Transport: every rank is a goroutine in this
// process and collectives rendezvous through shared memory. The last rank to
// arrive at an op performs the data movement in place ("last arriver
// computes"), reading every rank's buffers directly — no bytes are copied
// through an intermediary, which is what makes it the latency floor the
// socket transport is measured against.
type memTransport struct {
	collCtx

	mu      sync.Mutex
	ops     []opSlot // in-flight collectives, keyed by sequence number
	freeOps []*op    // recycled op descriptors
}

// opSlot is one in-flight collective's registry entry. In-flight ops are a
// handful at any moment (the async pipeline depth times the rank count), so
// a linear-scanned slice beats a map — and unlike a map keyed by the
// ever-growing sequence number it never allocates after warm-up (a map's
// fresh keys occasionally force a new overflow bucket even at constant
// size, which would break the zero-allocation steady-state contract).
type opSlot struct {
	seq uint64
	o   *op
}

func newMemTransport(size int) *memTransport {
	return &memTransport{collCtx: newCollCtx(size)}
}

// Size returns the number of ranks in the world.
//
//zinf:hotpath
func (t *memTransport) Size() int { return t.size }

// Close is a no-op: the in-memory transport holds no external resources.
func (t *memTransport) Close() error { return nil }

// hosts reports true for every rank: all goroutine ranks share this process.
func (t *memTransport) hosts(rank int) bool { return rank >= 0 && rank < t.size }

func (t *memTransport) snapshotTraffic(f func(k opKind, st TrafficStats)) {
	t.mu.Lock()
	snap := t.traffic
	t.mu.Unlock()
	for k := range snap {
		f(opKind(k), snap[k])
	}
}

// getOpLocked pops a pooled op descriptor (or builds one). Caller holds mu.
//
//zinf:hotpath
func (t *memTransport) getOpLocked(kind opKind, root int) *op {
	var o *op
	if n := len(t.freeOps); n > 0 {
		o = t.freeOps[n-1]
		t.freeOps[n-1] = nil
		t.freeOps = t.freeOps[:n-1]
	} else {
		//zinf:allow hotpathalloc op-pool miss grows the free list once per concurrency high-water mark; putOpLocked retains it
		o = &op{contrib: make([]payload, t.size)}
		o.done = sync.NewCond(&t.mu)
	}
	o.kind, o.root = kind, root
	return o
}

// putOpLocked clears and recycles an op descriptor. Caller holds mu.
//
//zinf:hotpath
func (t *memTransport) putOpLocked(o *op) {
	for i := range o.contrib {
		o.contrib[i] = payload{}
	}
	o.arrived, o.left, o.computed, o.result = 0, 0, false, 0
	t.freeOps = append(t.freeOps, o)
}

// issue registers rank's arrival at its seq-th collective and returns
// immediately; the last rank to arrive performs the data movement and wakes
// everyone, and each rank's Ticket.Wait is its departure. A size-1 world
// takes the same path: its one rank is the last arriver, so the data has
// moved when issue returns.
//
//zinf:hotpath
func (t *memTransport) issue(rank int, seq uint64, kind opKind, root int, pl payload) Ticket {
	t.mu.Lock()
	var o *op
	for i := range t.ops {
		if t.ops[i].seq == seq {
			o = t.ops[i].o
			break
		}
	}
	if o == nil {
		o = t.getOpLocked(kind, root)
		t.ops = append(t.ops, opSlot{seq: seq, o: o})
	}
	if o.kind != kind || o.root != root {
		// Release the world lock before panicking: a recovering caller (the
		// infinity engine's OOM guard, tests asserting the mismatch) must
		// not leave every other rank wedged on t.mu.
		t.mu.Unlock()
		panic(fmt.Sprintf("comm: collective mismatch at seq %d: rank %d called %s(root %d), others called %s(root %d)",
			seq, rank, kind, root, o.kind, o.root))
	}
	o.contrib[rank] = pl
	o.arrived++
	if o.arrived == t.size {
		t.computeMeasured(o)
		o.computed = true
		o.done.Broadcast()
	}
	t.mu.Unlock()
	return Ticket{mt: t, seq: seq, op: o}
}

// leaveLocked records one rank's departure; the last rank out recycles the
// op. Caller holds mu.
//
//zinf:hotpath
func (t *memTransport) leaveLocked(seq uint64, o *op) {
	o.left++
	if o.left == t.size {
		for i := range t.ops {
			if t.ops[i].seq == seq {
				last := len(t.ops) - 1
				t.ops[i] = t.ops[last]
				t.ops[last] = opSlot{}
				t.ops = t.ops[:last]
				break
			}
		}
		t.putOpLocked(o)
	}
}
