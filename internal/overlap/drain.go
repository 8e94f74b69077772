package overlap

import (
	"repro/internal/comm"
	"repro/internal/tensor"
)

// Pending is one asynchronously launched gradient reduce-scatter: the
// ticket, the fp32 destination shard the fused reduce-scatter+decode
// collective fills, and the binary16 gradient source buffer kept alive
// until the ticket completes. Both buffers typically come from the engine's
// scratch arena; the fold callback owns returning them.
type Pending[K comparable] struct {
	Key    K
	Ticket comm.Ticket
	Shard  []float32
	GH     []tensor.Half
}

// Drain waits out the oldest pending reduces in issue order until at most
// keep remain, handing each completed fp32 shard (plus its retired gradient
// source buffer) to fold. Issue order is exactly the synchronous engines'
// accumulation sequence, which is what keeps overlapped trajectories
// bit-identical — this is the single canonical implementation of that
// ordering, whether an engine bounds its in-flight window (keep > 0) or
// drains everything at a barrier (keep == 0). fold decides each buffer's
// fate (accumulate-and-recycle or keep as the gradient shard); the survivors
// move to the front of the slice, the vacated entries are zeroed, and the
// shortened slice is returned.
//
//zinf:hotpath
func Drain[K comparable](pending []Pending[K], keep int, fold func(key K, shard []float32, gh []tensor.Half)) []Pending[K] {
	n := len(pending) - keep
	if n <= 0 {
		return pending
	}
	for i := range pending[:n] {
		p := &pending[i]
		p.Ticket.Wait()
		fold(p.Key, p.Shard, p.GH)
	}
	left := copy(pending, pending[n:])
	clear(pending[left:])
	return pending[:left]
}
