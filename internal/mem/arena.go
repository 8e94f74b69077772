package mem

import (
	"math/bits"
	"sync"
)

// Arena is a size-classed free list for hot-path scratch slices: the
// allocation-reuse analogue, for ordinary (non-pinned) buffers, of the NVMe
// tier's pinned staging ring. Training engines and the collective substrate
// allocate the same handful of buffer shapes every step (padded fp16
// gradient buffers, gathered parameter views, reduction accumulators);
// routing those through an arena makes the steady-state step
// allocation-free after the first iteration warms the free lists.
//
// Get returns a slice of length n whose contents are UNDEFINED (stale data
// from a previous user); callers that need zeroed memory must clear it.
// Capacities are rounded up to the next power of two, so a Put slice serves
// any future Get within its size class. Back-pressure is bounded retention:
// each class keeps at most maxFreePerClass buffers and drops the rest for
// the GC, so a transient burst cannot pin memory forever.
//
// An Arena is safe for concurrent use; engines typically own one per rank
// while a comm.World owns one shared by its collective computes.
type Arena[T any] struct {
	mu sync.Mutex
	// free[k] holds idle slices of capacity exactly 1<<k.
	free [arenaClasses][][]T

	gets, hits, retained int64
}

// arenaClasses bounds the largest pooled class at 2^(arenaClasses-1)
// elements; larger requests fall through to plain make and are dropped on
// Put.
const arenaClasses = 34

// maxFreePerClass is the per-class retention bound (the back-pressure knob).
const maxFreePerClass = 32

// NewArena returns an empty arena.
func NewArena[T any]() *Arena[T] { return &Arena[T]{} }

// class returns the size class k such that 1<<k is the smallest power of two
// >= n (n >= 1).
//
//zinf:hotpath
func class(n int) int { return bits.Len(uint(n - 1)) }

// Get returns a slice of length n with undefined contents, reusing a pooled
// buffer when one of n's size class is free. Get(0) returns nil.
//
//zinf:hotpath
func (a *Arena[T]) Get(n int) []T {
	if n <= 0 {
		return nil
	}
	k := class(n)
	if k >= arenaClasses {
		// Oversize requests bypass the size classes entirely.
		return make([]T, n) //zinf:allow hotpathalloc oversize request beyond the largest size class; steady-state buffers are class-sized
	}
	a.mu.Lock()
	a.gets++
	if l := a.free[k]; len(l) > 0 {
		s := l[len(l)-1]
		l[len(l)-1] = nil
		a.free[k] = l[:len(l)-1]
		a.hits++
		a.mu.Unlock()
		return s[:n]
	}
	a.mu.Unlock()
	return make([]T, n, 1<<k) //zinf:allow hotpathalloc warmup pool miss; the buffer is retained by Put and every steady-state Get is a hit
}

// GetZeroed is Get followed by clearing the returned slice.
//
//zinf:hotpath
func (a *Arena[T]) GetZeroed(n int) []T {
	s := a.Get(n)
	clear(s)
	return s
}

// Put returns a buffer obtained from Get to the arena. Slices whose capacity
// is not a power of two (i.e. that did not come from an arena) and slices
// beyond a full class are silently dropped, so Put is always safe — double
// reuse is the only misuse it cannot catch. Put(nil) is a no-op.
//
//zinf:hotpath
func (a *Arena[T]) Put(s []T) {
	c := cap(s)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	k := class(c)
	if k >= arenaClasses {
		return
	}
	a.mu.Lock()
	if len(a.free[k]) < maxFreePerClass {
		a.free[k] = append(a.free[k], s[:c])
		a.retained++
	}
	a.mu.Unlock()
}

// Stats reports lifetime Get calls, the number served from the free lists,
// and the number of Put buffers accepted — evidence of steady-state reuse.
func (a *Arena[T]) Stats() (gets, hits, retained int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.gets, a.hits, a.retained
}
