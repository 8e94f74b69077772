// Package mem models device memory for the ZeRO-Infinity reproduction:
// a contiguous block allocator with explicit fragmentation (paper Sec. 3
// "MSWM ... can result in running out of memory ... due to lack of enough
// contiguous memory", and the Fig. 6b pre-fragmentation protocol), the
// recycling arenas behind the zero-allocation step, and a usage tracker that
// attributes bytes to model-state categories. The pinned memory management
// layer (Sec. 6.3) is the NVMe tier's staging ring (internal/core).
package mem

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Allocation failure modes. ErrFragmented means enough total bytes are free
// but no contiguous run is large enough — the failure mode memory-centric
// tiling exists to avoid.
var (
	ErrOutOfMemory = errors.New("mem: out of memory")
	ErrFragmented  = errors.New("mem: enough free memory but no contiguous block (fragmentation)")
)

// Block is an allocated region of device memory.
type Block struct {
	Offset int64
	Size   int64
}

type segment struct{ off, size int64 }

// Allocator is a first-fit contiguous allocator over a fixed-capacity
// address space. It is safe for concurrent use.
type Allocator struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	free     []segment // sorted by offset, non-overlapping, never empty-sized
	fences   []int64   // offsets across which free segments never coalesce
	peak     int64
}

// NewAllocator returns an allocator over capacity bytes.
func NewAllocator(capacity int64) *Allocator {
	if capacity < 0 {
		panic("mem: negative capacity")
	}
	a := &Allocator{capacity: capacity}
	if capacity > 0 {
		a.free = []segment{{0, capacity}}
	}
	return a
}

// Capacity returns the total device memory in bytes.
func (a *Allocator) Capacity() int64 { return a.capacity }

// Used returns the currently allocated bytes.
func (a *Allocator) Used() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.used
}

// Free returns the currently free bytes.
func (a *Allocator) Free() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.capacity - a.used
}

// Peak returns the high-water mark of allocated bytes.
func (a *Allocator) Peak() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.peak
}

// LargestFree returns the size of the largest contiguous free run.
func (a *Allocator) LargestFree() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var m int64
	for _, s := range a.free {
		if s.size > m {
			m = s.size
		}
	}
	return m
}

// Alloc reserves size contiguous bytes (first fit). A zero-size request
// succeeds and occupies no space. The error distinguishes capacity
// exhaustion (ErrOutOfMemory) from fragmentation (ErrFragmented).
func (a *Allocator) Alloc(size int64) (Block, error) {
	if size < 0 {
		return Block{}, fmt.Errorf("mem: negative alloc size %d", size)
	}
	if size == 0 {
		return Block{}, nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, s := range a.free {
		if s.size >= size {
			b := Block{Offset: s.off, Size: size}
			if s.size == size {
				a.free = append(a.free[:i], a.free[i+1:]...)
			} else {
				a.free[i] = segment{s.off + size, s.size - size}
			}
			a.used += size
			if a.used > a.peak {
				a.peak = a.used
			}
			return b, nil
		}
	}
	if a.capacity-a.used >= size {
		return Block{}, fmt.Errorf("%w: want %d contiguous, free %d, largest run %d",
			ErrFragmented, size, a.capacity-a.used, a.largestFreeLocked())
	}
	return Block{}, fmt.Errorf("%w: want %d, free %d of %d",
		ErrOutOfMemory, size, a.capacity-a.used, a.capacity)
}

func (a *Allocator) largestFreeLocked() int64 {
	var m int64
	for _, s := range a.free {
		if s.size > m {
			m = s.size
		}
	}
	return m
}

// Release returns a block to the free list, coalescing with neighbours
// unless a fence separates them. Releasing the zero Block is a no-op.
func (a *Allocator) Release(b Block) {
	if b.Size == 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].off >= b.Offset })
	seg := segment{b.Offset, b.Size}
	// Coalesce with predecessor.
	if i > 0 {
		p := a.free[i-1]
		if p.off+p.size > seg.off {
			panic(fmt.Sprintf("mem: double free or overlap at %d", b.Offset))
		}
		if p.off+p.size == seg.off && !a.isFence(seg.off) {
			seg = segment{p.off, p.size + seg.size}
			a.free = append(a.free[:i-1], a.free[i:]...)
			i--
		}
	}
	// Coalesce with successor.
	if i < len(a.free) {
		n := a.free[i]
		if seg.off+seg.size > n.off {
			panic(fmt.Sprintf("mem: double free or overlap at %d", b.Offset))
		}
		if seg.off+seg.size == n.off && !a.isFence(n.off) {
			seg.size += n.size
			a.free = append(a.free[:i], a.free[i+1:]...)
		}
	}
	a.free = append(a.free, segment{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = seg
	a.used -= b.Size
}

func (a *Allocator) isFence(off int64) bool {
	j := sort.Search(len(a.fences), func(i int) bool { return a.fences[i] >= off })
	return j < len(a.fences) && a.fences[j] == off
}

// PreFragment reproduces the paper's Fig. 6b protocol: it splits the address
// space into chunkSize-aligned regions and forbids free-segment coalescing
// across region boundaries, so every allocation larger than chunkSize fails
// with ErrFragmented even when memory is otherwise empty. It must be called
// before any allocation.
func (a *Allocator) PreFragment(chunkSize int64) {
	if chunkSize <= 0 {
		panic("mem: PreFragment chunk must be positive")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.used != 0 {
		panic("mem: PreFragment after allocations")
	}
	a.fences = a.fences[:0]
	var newFree []segment
	for off := int64(0); off < a.capacity; off += chunkSize {
		end := off + chunkSize
		if end > a.capacity {
			end = a.capacity
		}
		newFree = append(newFree, segment{off, end - off})
		if off > 0 {
			a.fences = append(a.fences, off)
		}
	}
	a.free = newFree
}

// Reset releases everything (fences persist).
func (a *Allocator) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.used = 0
	a.peak = 0
	a.free = a.free[:0]
	prev := int64(0)
	for _, f := range a.fences {
		a.free = append(a.free, segment{prev, f - prev})
		prev = f
	}
	if prev < a.capacity {
		a.free = append(a.free, segment{prev, a.capacity - prev})
	}
}
