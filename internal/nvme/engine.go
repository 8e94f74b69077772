package nvme

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrClosed is reported by tickets for requests submitted after Close.
var ErrClosed = errors.New("nvme: engine closed")

// Op distinguishes read from write requests.
type Op int

// Request operations.
const (
	Read Op = iota
	Write
)

func (o Op) String() string {
	if o == Write {
		return "write"
	}
	return "read"
}

// Ticket tracks one asynchronous bulk request. Wait blocks until every
// sub-request has completed and returns the first error.
//
// The zero Ticket is ready for use, and a caller that owns one (a field of
// its own state, passed to Issue) may issue a new request on it once Wait
// has returned: the ticket then reports that request alone, so a
// steady-state caller performs no allocation per request. A ticket must not
// be reissued while a request on it is in flight, nor waited on by two
// goroutines at once. ReadAsync, WriteAsync, ReadRegion and WriteRegion
// return a fresh ticket per request.
type Ticket struct {
	wg  sync.WaitGroup
	err atomic.Pointer[error]
}

// Wait blocks for completion and returns the first error encountered.
//
//zinf:hotpath
func (t *Ticket) Wait() error {
	t.wg.Wait()
	if e := t.err.Load(); e != nil {
		return *e
	}
	return nil
}

// setErr keeps a request's first failure; a success records nothing.
//
//zinf:hotpath
func (t *Ticket) setErr(err error) {
	if err != nil {
		// Taking the address of a branch-local copy, not of the parameter,
		// keeps the successful completion free of a heap allocation.
		e := err
		t.err.CompareAndSwap(nil, &e)
	}
}

// Stats reports cumulative engine activity.
type Stats struct {
	Reads        int64
	Writes       int64
	BytesRead    int64
	BytesWritten int64
	// Retried counts sub-request retry attempts (transient-fault recovery).
	Retried int64
}

type subReq struct {
	op     Op
	buf    []byte
	off    int64
	ticket *Ticket
}

// Engine is the asynchronous bulk I/O engine: a fixed worker pool consuming
// a request queue. Large requests are split into chunkSize sub-requests so a
// single bulk read/write is parallelized across all workers — the mechanism
// by which DeepNVMe reaches near-peak sequential bandwidth from one user
// thread. Issue is the one submission path: a steady-state caller passes
// tickets it owns and reuses, and the convenience forms wrap it with a
// fresh ticket.
type Engine struct {
	store        Store
	chunkSize    int
	queue        chan subReq
	wg           sync.WaitGroup
	retries      int
	retryBackoff time.Duration
	faults       *FaultInjector

	// mu serializes shutdown against submission: submitters hold the read
	// side across the closed-check, pending.Add and queue sends, and Close
	// flips closed under the write side. This ensures no send can land on a
	// closed channel and no pending.Add can race the final pending.Wait.
	mu     sync.RWMutex
	closed bool

	pending sync.WaitGroup // all in-flight tickets, for Flush

	reads, writes           atomic.Int64
	bytesRead, bytesWritten atomic.Int64
	retried                 atomic.Int64
}

// Options configures an Engine.
type Options struct {
	// Workers is the I/O parallelism (default 8).
	Workers int
	// ChunkSize is the split granularity for bulk requests in bytes
	// (default 1 MiB).
	ChunkSize int
	// QueueDepth is the submission queue length (default 4*Workers).
	QueueDepth int
	// Retries is how many times a failed sub-request is retried (with
	// RetryBackoff between attempts) before its error is reported on the
	// ticket. 0 disables retry — the historical behaviour.
	Retries int
	// RetryBackoff is the initial sleep before a retry, doubling per
	// attempt (default 100µs when Retries > 0).
	RetryBackoff time.Duration
	// Faults, when set, consults the injector before every sub-request —
	// the crash/IO-error test hook. Production engines leave it nil.
	Faults *FaultInjector
}

func (o *Options) setDefaults() {
	if o.Workers <= 0 {
		o.Workers = 8
	}
	if o.ChunkSize <= 0 {
		o.ChunkSize = 1 << 20
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 4 * o.Workers
	}
	if o.Retries > 0 && o.RetryBackoff <= 0 {
		o.RetryBackoff = 100 * time.Microsecond
	}
}

// NewEngine starts an engine over store.
func NewEngine(store Store, opts Options) *Engine {
	opts.setDefaults()
	e := &Engine{
		store:        store,
		chunkSize:    opts.ChunkSize,
		queue:        make(chan subReq, opts.QueueDepth),
		retries:      opts.Retries,
		retryBackoff: opts.RetryBackoff,
		faults:       opts.Faults,
	}
	e.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go e.worker()
	}
	return e
}

func (e *Engine) worker() {
	defer e.wg.Done()
	for r := range e.queue {
		err := e.perform(r)
		for attempt := 0; err != nil && attempt < e.retries; attempt++ {
			// Bounded retry with exponential backoff: transient faults (a
			// busy device, an exhausted injector arm) clear; persistent
			// errors surface on the ticket after the budget is spent.
			time.Sleep(e.retryBackoff << attempt)
			e.retried.Add(1)
			err = e.perform(r)
		}
		r.ticket.setErr(err)
		r.ticket.wg.Done()
		e.pending.Done()
	}
}

// perform executes one sub-request against the store, consulting the fault
// injector first when one is installed.
func (e *Engine) perform(r subReq) error {
	var err error
	injected := false
	if e.faults != nil {
		if arm, ok := e.faults.match(r.op); ok {
			switch arm.Mode {
			case FaultDelay:
				time.Sleep(arm.Delay) // slow completion, then proceed normally
			case FaultTorn:
				if r.op == Write {
					// Torn write: half the chunk reaches the store, then the
					// "device" fails — the on-disk bytes are now garbage.
					e.store.WriteAt(r.buf[:len(r.buf)/2], r.off)
				}
				injected, err = true, arm.Err
			default:
				injected, err = true, arm.Err
			}
		}
	}
	if !injected {
		switch r.op {
		case Read:
			_, err = e.store.ReadAt(r.buf, r.off)
		case Write:
			_, err = e.store.WriteAt(r.buf, r.off)
		}
	}
	switch r.op {
	case Read:
		e.reads.Add(1)
		e.bytesRead.Add(int64(len(r.buf)))
	case Write:
		e.writes.Add(1)
		e.bytesWritten.Add(int64(len(r.buf)))
	}
	return err
}

// Issue splits a request of op on buf at off into chunks and enqueues them,
// reporting completion on the caller-owned ticket t (see Ticket for reuse).
// buf must stay untouched until t completes. A request that races or
// follows Close is not enqueued; t reports ErrClosed.
//
//zinf:hotpath
func (e *Engine) Issue(t *Ticket, op Op, buf []byte, off int64) {
	t.err.Store(nil)
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		t.setErr(ErrClosed)
		return
	}
	n := len(buf)
	chunks := (n + e.chunkSize - 1) / e.chunkSize
	if chunks == 0 {
		return // empty request: Wait returns immediately
	}
	t.wg.Add(chunks)
	e.pending.Add(chunks)
	for c := 0; c < chunks; c++ {
		lo := c * e.chunkSize
		hi := lo + e.chunkSize
		if hi > n {
			hi = n
		}
		e.queue <- subReq{op: op, buf: buf[lo:hi], off: off + int64(lo), ticket: t}
	}
}

// async issues a request on a fresh ticket.
func (e *Engine) async(op Op, buf []byte, off int64) *Ticket {
	t := new(Ticket)
	e.Issue(t, op, buf, off)
	return t
}

// ReadAsync schedules a bulk read of len(buf) bytes at off into buf.
// buf must stay untouched until the ticket completes.
func (e *Engine) ReadAsync(buf []byte, off int64) *Ticket { return e.async(Read, buf, off) }

// WriteAsync schedules a bulk write of buf at off.
// buf must stay untouched until the ticket completes.
func (e *Engine) WriteAsync(buf []byte, off int64) *Ticket { return e.async(Write, buf, off) }

// ReadRegion reads exactly r.Size bytes from region r into buf.
func (e *Engine) ReadRegion(buf []byte, r Region) *Ticket {
	if int64(len(buf)) != r.Size {
		panic(fmt.Sprintf("nvme: ReadRegion buf %d != region %d", len(buf), r.Size))
	}
	return e.ReadAsync(buf, r.Offset)
}

// WriteRegion writes exactly r.Size bytes from buf into region r.
func (e *Engine) WriteRegion(buf []byte, r Region) *Ticket {
	if int64(len(buf)) != r.Size {
		panic(fmt.Sprintf("nvme: WriteRegion buf %d != region %d", len(buf), r.Size))
	}
	return e.WriteAsync(buf, r.Offset)
}

// Read performs a synchronous bulk read.
func (e *Engine) Read(buf []byte, off int64) error { return e.ReadAsync(buf, off).Wait() }

// Write performs a synchronous bulk write.
func (e *Engine) Write(buf []byte, off int64) error { return e.WriteAsync(buf, off).Wait() }

// Flush blocks until every submitted request has completed — the explicit
// synchronization request in the DeepNVMe API.
func (e *Engine) Flush() { e.pending.Wait() }

// Stats returns cumulative counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Reads:        e.reads.Load(),
		Writes:       e.writes.Load(),
		BytesRead:    e.bytesRead.Load(),
		BytesWritten: e.bytesWritten.Load(),
		Retried:      e.retried.Load(),
	}
}

// Close drains the queue and stops the workers. The store is not closed.
// Requests submitted concurrently with (or after) Close either complete
// normally or report ErrClosed — never a send on a closed channel.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.mu.Unlock()
	// No submitter can enqueue or pending.Add past this point, so the drain
	// below observes a monotonically shrinking request set.
	e.pending.Wait()
	close(e.queue)
	e.wg.Wait()
}
