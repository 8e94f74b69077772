package comm

import (
	"fmt"
	"sync"
	"time"
)

// memTransport is the reference Transport: every rank is a goroutine in this
// process and collectives rendezvous through shared memory. Issuing only
// publishes a rank's buffers in the op's descriptor; each rank then computes
// its own destination outside the world lock, reading its peers' parts
// (collCtx.part) in place in their buffers — no bytes are copied through an
// intermediary, which is what makes it the latency floor the socket
// transport is measured against.
type memTransport struct {
	collCtx

	mu      sync.Mutex
	ops     []opSlot    // in-flight collectives, keyed by sequence number
	freeOps []*op       // recycled op descriptors
	views   [][]payload // by rank: the parts its destination reads (see complete)
}

// op is one in-flight collective on the in-memory transport: every rank's
// published contribution and the barriers each rank passes to complete it.
// A rank computes its destination once every rank has arrived; an
// all-reduce's owners share their reduced spans once every rank has
// reduced; and a rank leaves only once every rank has finished reading its
// buffers, the last one out recycling the descriptor.
type op struct {
	kind    opKind
	root    int
	contrib []payload // per-rank argument, indexed by rank

	// Barrier counts, guarded by the world mutex, which cond shares.
	arrived, reduced, finished, left int
	cond                             *sync.Cond
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
	t := &memTransport{collCtx: newCollCtx(size), views: make([][]payload, size)}
	for r := range t.views {
		t.views[r] = make([]payload, size)
	}
	return t
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
		//zinf:allow hotpathalloc op-pool miss grows the free list once per concurrency high-water mark; retireLocked retains it
		o = &op{contrib: make([]payload, t.size)}
		o.cond = sync.NewCond(&t.mu)
	}
	o.kind, o.root = kind, root
	return o
}

// retireLocked drops the op at seq from the registry and recycles its
// descriptor: every rank has left it. Caller holds mu.
//
//zinf:hotpath
func (t *memTransport) retireLocked(seq uint64, o *op) {
	for i := range t.ops {
		if t.ops[i].seq == seq {
			last := len(t.ops) - 1
			t.ops[i] = t.ops[last]
			t.ops[last] = opSlot{}
			t.ops = t.ops[:last]
			break
		}
	}
	clear(o.contrib)
	o.arrived, o.reduced, o.finished, o.left = 0, 0, 0, 0
	t.freeOps = append(t.freeOps, o)
}

// issue publishes rank's contribution to its seq-th collective and returns
// at once. The last rank to arrive records the collective's modeled traffic
// (on this transport the measured bytes are the modeled ones: the
// destinations' copies are the wire) and wakes the ranks already waiting.
//
//zinf:hotpath
func (t *memTransport) issue(rank int, seq uint64, kind opKind, root int, pl payload) *op {
	t.prepare(rank, kind, pl)
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
	if o.arrived++; o.arrived == t.size {
		t.account(kind, pl)
		st := &t.traffic[kind]
		st.MeasIntraBytes, st.MeasInterBytes = st.IntraBytes, st.InterBytes
		o.cond.Broadcast()
	}
	t.mu.Unlock()
	return o
}

// passLocked counts one rank through the barrier count *n and blocks until
// every rank has passed it. Caller holds mu.
//
//zinf:hotpath
func (t *memTransport) passLocked(o *op, n *int) {
	if *n++; *n == t.size {
		o.cond.Broadcast()
	}
	for *n < t.size {
		o.cond.Wait()
	}
}

// complete is rank's side of collective p once issued: when every rank has
// arrived it computes its own destination outside the world lock, reading
// each peer's part in place, and it leaves once every rank has finished
// reading its buffers (a scalar's parts are descriptor values, so it leaves
// at once). Its compute time is added to the kind's MeasSeconds.
//
//zinf:hotpath
func (t *memTransport) complete(rank int, p pendingOp) float64 {
	o := p.o
	t.mu.Lock()
	for o.arrived < t.size {
		o.cond.Wait()
	}
	t.mu.Unlock()

	start := time.Now()
	view := t.views[rank]
	for src := range view {
		hs, ok := t.part(p.kind, p.root, src, rank, o.contrib[src])
		if want, _ := t.part(p.kind, p.root, src, rank, p.pl); ok && len(hs) != len(want) {
			panic(fmt.Sprintf("comm: %s length mismatch at seq %d: rank %d passed %d elements, rank %d expected %d",
				p.kind, p.seq, src, len(hs), rank, len(want)))
		}
		view[src] = payload{hsrc: hs, v: o.contrib[src].v}
	}
	res := t.destination(view, rank, p)
	clear(view)
	if p.kind == opAllReduceHalf {
		// Only an owner writes its span of its own buffer; every peer copies
		// that span only once every owner's is final.
		t.mu.Lock()
		t.passLocked(o, &o.reduced)
		t.mu.Unlock()
		buf := p.pl.hdst
		for r := range o.contrib {
			if r != rank {
				lo, hi := t.ownedSpan(len(buf), r)
				copy(buf[lo:hi], o.contrib[r].hdst[lo:hi])
			}
		}
	}
	elapsed := time.Since(start).Seconds()

	t.mu.Lock()
	t.traffic[p.kind].MeasSeconds += elapsed
	if p.kind != opAllReduceScalar && p.kind != opAllReduceMax {
		// A scalar's values sit in the descriptor, not in rank buffers, so
		// no rank need wait for the others to finish reading: the last one
		// out retires the descriptor.
		t.passLocked(o, &o.finished)
	}
	if o.left++; o.left == t.size {
		t.retireLocked(p.seq, o)
	}
	t.mu.Unlock()
	return res
}
