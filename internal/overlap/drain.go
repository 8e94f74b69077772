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

// Drain waits out pending reduces in issue order and hands each completed
// fp32 shard (plus its retired gradient source buffer) to fold. Issue order
// is exactly the synchronous engines' accumulation sequence, which is what
// keeps overlapped trajectories bit-identical — this is the single canonical
// implementation of that ordering. fold decides each buffer's fate (accumulate-and-recycle or keep
// as the gradient shard); entries are zeroed as they are folded and the
// emptied, reusable slice is returned.
//
//zinf:hotpath
func Drain[K comparable](pending []Pending[K], fold func(key K, shard []float32, gh []tensor.Half)) []Pending[K] {
	for i := range pending {
		p := &pending[i]
		p.Ticket.Wait()
		fold(p.Key, p.Shard, p.GH)
		*p = Pending[K]{}
	}
	return pending[:0]
}
