package core

import (
	"bufio"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/module"
	"repro/internal/nvme"
	"repro/internal/optim"
	"repro/internal/tensor"
	"repro/internal/zero"
)

// nvmeTier is the infinity offload engine (paper Sec. 5-6): the zero.Tier
// that keeps the fp16 parameter shards, the fp32 [master|m|v] optimizer
// shards, or both, in regions of a per-rank NVMe store and streams them
// through a small pool of reusable pinned staging buffers (Sec. 6.3).
// Whichever state class is not placed on NVMe stays in the embedded
// resident tier. Three pieces make up the overlap-centric design's NVMe
// half (Sec. 6.2): read-ahead of the shards the next operators will gather,
// so the nc-transfer of parameter i+k overlaps the compute of parameter i;
// a streamed optimizer step that reads parameter i+1's state while
// parameter i updates; and asynchronous write-back.
type nvmeTier struct {
	*zero.Resident
	params, opt bool // which state classes live on NVMe
	// bcast: owner-rank partitioning, where only the owner reads a shard.
	bcast bool

	store  nvme.Store
	vol    *nvme.Volume
	io     *nvme.Engine
	pinned *mem.PinnedPool

	slots []nvmeSlot

	// Read-ahead: outstanding counts speculative reads holding pinned
	// buffers. depth stays strictly below the pool size or a synchronous
	// fetch could starve. reading lists the slots whose reads may still be
	// pending, for the drain; consumed ones have a nil ticket.
	depth, outstanding int
	reading            []int
	issued, hits       int
}

// nvmeSlot is one parameter's NVMe-side state.
type nvmeSlot struct {
	name string
	n    int // shard length (0: another rank owns the parameter)
	// region holds the fp16 shard, optRegion the f32 bytes of master||m||v —
	// exactly the rank-state record, so checkpoints move raw bytes.
	region, optRegion nvme.Region
	read              inflightRead // speculative shard read, by value
}

type inflightRead struct {
	ticket *nvme.Ticket
	buf    []byte
	// born is the engine's gather count when the read was issued. A gather is
	// only chained onto a read at least two gathers old — younger reads are
	// likely still in flight, and waiting on them early would serialize the
	// disk stage instead of overlapping it. Gather counts are identical
	// across SPMD ranks, so the gate is deterministic.
	born int
}

// The tier's staging geometry is fixed, like the paper's pinned-memory
// layer (Sec. 6.3): pinnedBuffers reusable buffers, each sized to the
// largest optimizer record, and nvmeWorkers parallel I/O workers.
const (
	pinnedBuffers = 4
	nvmeWorkers   = 4
)

// newNVMeTier sizes and opens the store and pinned pool for this rank's
// shards of g's parameters.
func newNVMeTier(cfg Config, rank, dp int, g zero.Model, sc zero.Scratch) (*nvmeTier, error) {
	ps := module.AllParams(g)
	t := &nvmeTier{
		Resident: zero.NewResident(len(ps), cfg.Backend, cfg.Adam, sc),
		params:   cfg.Params == zero.OnNVMe,
		opt:      cfg.Optimizer == zero.OnNVMe,
		bcast:    cfg.Partition == zero.PartitionBroadcast,
		slots:    make([]nvmeSlot, len(ps)),
	}
	var capacity int64
	maxRegion := 1
	for i, p := range ps {
		s := zero.ShardLen(cfg.Partition, i, p.Len(), rank, dp)
		t.slots[i] = nvmeSlot{name: p.Name, n: s}
		if t.params {
			capacity += int64(s) * tensor.HalfBytes
		}
		if t.opt {
			capacity += int64(s) * 12
		}
		maxRegion = max(maxRegion, s*12)
	}
	var err error
	if cfg.NVMeDir != "" {
		t.store, err = nvme.NewTempFileStore(cfg.NVMeDir, capacity)
	} else {
		t.store = nvme.NewMemStore(capacity)
	}
	if err != nil {
		return nil, fmt.Errorf("core: open nvme store: %w", err)
	}
	t.vol = nvme.NewVolume(t.store)
	t.io = nvme.NewEngine(t.store, nvme.Options{Workers: nvmeWorkers})
	t.pinned = mem.NewPinnedPool(pinnedBuffers, maxRegion)
	if t.params {
		// Speculative reads must never hold the whole pinned pool.
		t.depth = min(cfg.PrefetchDepth, pinnedBuffers-1)
	}
	return t, nil
}

// Close releases the I/O engine and the store.
func (t *nvmeTier) Close() {
	t.io.Close()
	t.store.Close()
}

// write synchronously persists buf to a region, allocating the region on
// first use.
func (t *nvmeTier) write(r *nvme.Region, name string, buf []byte) error {
	if r.Size == 0 {
		var err error
		if *r, err = t.vol.Alloc(name, int64(len(buf))); err != nil {
			return err
		}
	}
	if err := t.io.WriteRegion(buf, *r).Wait(); err != nil {
		return fmt.Errorf("core: write %s: %w", name, err)
	}
	return nil
}

// Place implements zero.Tier.
func (t *nvmeTier) Place(i int, half []tensor.Half, master []float32) error {
	s := &t.slots[i]
	if !t.params {
		t.Half[i] = half
	} else if s.n > 0 {
		buf := make([]byte, s.n*tensor.HalfBytes)
		tensor.HalfToBytes(buf, half)
		if err := t.write(&s.region, "param/"+s.name, buf); err != nil {
			return err
		}
	}
	if !t.opt {
		t.PlaceOpt(i, master)
	} else if s.n > 0 {
		buf := make([]byte, 12*s.n)
		tensor.F32ToBytes(buf[:4*s.n], master) // momentum and variance start at zero
		return t.write(&s.optRegion, "opt/"+s.name, buf)
	}
	return nil
}

// Shard implements zero.Tier: a matured read-ahead is consumed, otherwise
// the shard is read synchronously through a pinned buffer. The returned
// slice is Scratch; Done recycles it.
func (t *nvmeTier) Shard(i int) ([]tensor.Half, error) {
	if !t.params {
		return t.Half[i], nil
	}
	s := &t.slots[i]
	buf, tk := s.read.buf, s.read.ticket
	if tk != nil {
		// Read ahead: the nc-transfer already happened (or is completing).
		s.read = inflightRead{}
		t.outstanding--
		t.hits++
	} else {
		buf = t.pinned.Acquire()
		tk = t.io.ReadRegion(buf[:s.region.Size], s.region)
	}
	err := tk.Wait()
	var half []tensor.Half
	if err == nil {
		half = t.F16.Get(s.n)
		tensor.HalfFromBytes(half, buf[:s.region.Size])
	} else {
		err = fmt.Errorf("core: read shard %s: %w", s.name, err)
	}
	t.pinned.Release(buf)
	return half, err
}

// Done implements zero.Tier.
func (t *nvmeTier) Done(shard []tensor.Half) {
	if t.params {
		t.F16.Put(shard)
	}
}

// Ready implements zero.Tier: a shard can be gathered speculatively once its
// read-ahead is two gathers old. Both conditions are pure functions of the
// gather sequence, never of I/O completion timing, so every rank answers
// identically — except under owner-rank partitioning, where the reads are
// private to the owner and no rank-invariant signal exists: never ready.
func (t *nvmeTier) Ready(i, gathers int) bool {
	if !t.params {
		return true
	}
	r := &t.slots[i].read
	return !t.bcast && r.ticket != nil && gathers-r.born >= 2
}

// ReadAhead implements zero.Tier. Reads are rank-local, so skipping a
// parameter this rank holds no shard of cannot desynchronize ranks.
func (t *nvmeTier) ReadAhead(i, gathers int) bool {
	if t.outstanding >= t.depth {
		return false
	}
	s := &t.slots[i]
	if s.n == 0 || s.read.ticket != nil {
		return true
	}
	buf, ok := t.pinned.TryAcquire()
	if !ok {
		return false // pool exhausted: back-pressure, stop speculating
	}
	s.read = inflightRead{ticket: t.io.ReadRegion(buf[:s.region.Size], s.region), buf: buf, born: gathers}
	t.reading = append(t.reading, i)
	t.issued++
	t.outstanding++
	return true
}

// DrainReads implements zero.Tier.
func (t *nvmeTier) DrainReads() {
	for _, i := range t.reading {
		if r := &t.slots[i].read; r.ticket != nil {
			_ = r.ticket.Wait() // abandoned read: only its buffer matters
			t.pinned.Release(r.buf)
			*r = inflightRead{}
		}
	}
	t.reading = t.reading[:0]
	t.outstanding = 0
}

// putShard rebuilds parameter i's fp16 shard from its master and persists
// it on its tier.
func (t *nvmeTier) putShard(i int, master []float32) error {
	if !t.params {
		t.Backend.EncodeHalf(t.Half[i], master)
		return nil
	}
	s := &t.slots[i]
	half := t.F16.Get(s.n)
	t.Backend.EncodeHalf(half, master)
	buf := t.Bytes.Get(int(s.region.Size))
	tensor.HalfToBytes(buf, half)
	err := t.write(&s.region, "param/"+s.name, buf)
	t.Bytes.Put(buf)
	t.F16.Put(half)
	return err
}

// Update implements zero.Tier. With the optimizer state on NVMe it streams
// every parameter's [master|m|v] region through pinned staging buffers,
// applies Adam on the CPU and writes the state and the refreshed fp16 shard
// back — the chunked, overlapped optimizer step of the infinity offload
// engine (paper Sec. 5.2.2). The read for parameter i+1 is issued before
// parameter i is processed and writes complete asynchronously; the bounded
// pinned pool provides back-pressure.
func (t *nvmeTier) Update(step int, owned []int, grads [][]float32) error {
	if !t.opt {
		for k, i := range owned {
			if err := t.putShard(i, t.Apply(step, i, grads[k])); err != nil {
				return err
			}
		}
		return nil
	}
	type slot struct {
		buf    []byte
		ticket *nvme.Ticket
	}
	issueRead := func(i int) slot {
		buf := t.pinned.Acquire()
		r := t.slots[i].optRegion
		return slot{buf: buf, ticket: t.io.ReadRegion(buf[:r.Size], r)}
	}
	var wg sync.WaitGroup
	var firstErr atomic.Pointer[error]
	setErr := func(err error) {
		if err != nil {
			firstErr.CompareAndSwap(nil, &err)
		}
	}
	var next slot
	if len(owned) > 0 {
		next = issueRead(owned[0])
	}
	for k, i := range owned {
		cur := next
		if k+1 < len(owned) {
			next = issueRead(owned[k+1])
		}
		s := &t.slots[i]
		if err := cur.ticket.Wait(); err != nil {
			t.pinned.Release(cur.buf)
			if k+1 < len(owned) {
				// The next read is already in flight holding a pinned
				// buffer; await it so releasing the buffer is safe.
				_ = next.ticket.Wait()
				t.pinned.Release(next.buf)
			}
			// Outstanding async writes from earlier iterations also hold
			// pinned buffers; their reapers must run before we return.
			wg.Wait()
			return fmt.Errorf("core: optimizer read %s: %w", s.name, err)
		}
		n := s.n
		master, m, v := t.F32.Get(n), t.F32.Get(n), t.F32.Get(n)
		tensor.F32FromBytes(master, cur.buf[0:4*n])
		tensor.F32FromBytes(m, cur.buf[4*n:8*n])
		tensor.F32FromBytes(v, cur.buf[8*n:12*n])

		optim.StepVecOn(t.Backend, t.Adam, step, master, grads[k], m, v)
		t.F32.Put(grads[k])

		// Serialize the updated optimizer state back into the same pinned
		// buffer and write asynchronously; a reaper returns the buffer to
		// the pool when the write lands.
		tensor.F32ToBytes(cur.buf[0:4*n], master)
		tensor.F32ToBytes(cur.buf[4*n:8*n], m)
		tensor.F32ToBytes(cur.buf[8*n:12*n], v)
		wt := t.io.WriteRegion(cur.buf[:s.optRegion.Size], s.optRegion)

		// Refresh the fp16 parameter shard on its own tier.
		var pt *nvme.Ticket
		var pbuf []byte
		if t.params {
			half := t.F16.Get(n)
			t.Backend.EncodeHalf(half, master)
			pbuf = t.Bytes.Get(int(s.region.Size))
			tensor.HalfToBytes(pbuf, half)
			pt = t.io.WriteRegion(pbuf, s.region)
			t.F16.Put(half)
		} else {
			t.Backend.EncodeHalf(t.Half[i], master)
		}
		t.F32.Put(master)
		t.F32.Put(m)
		t.F32.Put(v)

		wg.Add(1)
		go func() {
			defer wg.Done()
			setErr(wt.Wait())
			if pt != nil {
				setErr(pt.Wait())
				t.Bytes.Put(pbuf)
			}
			t.pinned.Release(cur.buf)
		}()
	}
	wg.Wait()
	t.io.Flush()
	if ep := firstErr.Load(); ep != nil {
		return *ep
	}
	return nil
}

// SaveOpt implements zero.Tier: an NVMe-resident record is the region's raw
// bytes.
func (t *nvmeTier) SaveOpt(i int, w *bufio.Writer, codec *zero.VecCodec) error {
	if !t.opt {
		return t.Resident.SaveOpt(i, w, codec)
	}
	r := t.slots[i].optRegion
	buf := t.Bytes.Get(int(r.Size))
	err := t.io.ReadRegion(buf, r).Wait()
	if err == nil {
		_, err = w.Write(buf)
	}
	t.Bytes.Put(buf)
	return err
}

// LoadOpt implements zero.Tier.
func (t *nvmeTier) LoadOpt(i int, r *bufio.Reader, codec *zero.VecCodec) error {
	if !t.opt {
		master, err := t.ReadOpt(i, r, codec)
		if err != nil {
			return err
		}
		return t.putShard(i, master)
	}
	s := &t.slots[i]
	buf := t.Bytes.Get(int(s.optRegion.Size))
	master := t.F32.Get(s.n)
	_, err := io.ReadFull(r, buf)
	if err == nil {
		tensor.F32FromBytes(master, buf[:4*s.n])
		err = t.write(&s.optRegion, "opt/"+s.name, buf)
	}
	if err == nil {
		err = t.putShard(i, master)
	}
	t.F32.Put(master)
	t.Bytes.Put(buf)
	return err
}

// addStats fills the tier's share of the engine statistics.
func (t *nvmeTier) addStats(s *Stats) {
	st := t.io.Stats()
	s.NVMeBytesRead, s.NVMeBytesWritten = st.BytesRead, st.BytesWritten
	s.PinnedBytes, s.PinnedAcquires = t.pinned.TotalBytes(), t.pinned.Acquires()
	s.PrefetchIssued, s.PrefetchHits = t.issued, t.hits
}

var _ zero.Tier = (*nvmeTier)(nil)
