package core

import (
	"bufio"
	"fmt"

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
//
// Region bytes are the host-order memory of the values they hold, so a
// pinned buffer is computed on where it lies, through tensor.F32View and
// tensor.HalfView: Adam updates the record in the buffer the read landed
// in, and that buffer is what is written back. Only the rank-state codec
// (SaveOpt/LoadOpt) converts, to the file's little-endian layout. The
// steady-state step starts no goroutine and allocates nothing: every
// request runs on a ticket embedded in its slot, and pending write-backs
// are value records in a FIFO the rank goroutine reaps itself.
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
	// pending, for the drain.
	depth, outstanding int
	reading            []int
	issued, hits       int

	// The optimizer step's pending write-backs, oldest at whead. Each holds
	// a pinned buffer, so there are never more than the pool has. The rank
	// reaps the oldest when it needs a buffer and the rest before Update
	// returns; firstErr is the first failure since the last drain.
	writes      [pinnedBuffers]writeBack
	whead, wlen int
	firstErr    error
}

// nvmeSlot is one parameter's NVMe-side state.
type nvmeSlot struct {
	name string
	n    int // shard length (0: another rank owns the parameter)
	// region holds the fp16 shard, optRegion the f32 values of master||m||v
	// — on a little-endian host exactly the rank-state record's bytes.
	region, optRegion nvme.Region
	// io carries the slot's shard or optimizer-record request (a read, or
	// the optimizer write-back that follows it), halfIO the fp16 shard's
	// write. Each is reissued only once its last request has been waited.
	io, halfIO nvme.Ticket
	// ahead is the pinned buffer of an unconsumed read-ahead of the shard
	// (nil: none). born is the engine's gather count when it was issued. A
	// gather is only chained onto a read at least two gathers old — younger
	// reads are likely still in flight, and waiting on them early would
	// serialize the disk stage instead of overlapping it. Gather counts are
	// identical across SPMD ranks, so the gate is deterministic.
	ahead []byte
	born  int
}

// writeBack is one pending write-back of the streamed optimizer step: slot's
// record from the pinned buffer buf on its io ticket and, when half is set,
// its fp16 shard from that Bytes-arena buffer on its halfIO ticket.
type writeBack struct {
	slot      int
	buf, half []byte
}

// The tier's staging geometry is fixed, like the paper's pinned-memory
// layer (Sec. 6.3): pinnedBuffers reusable buffers, each sized to the
// largest optimizer record, and nvmeWorkers parallel I/O workers.
const (
	pinnedBuffers = 4
	nvmeWorkers   = 4
)

// newNVMeTier sizes and opens the store, its regions and the pinned pool
// for this rank's shards of g's parameters.
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
		s := &t.slots[i]
		s.name, s.n = p.Name, zero.ShardLen(cfg.Partition, i, p.Len(), rank, dp)
		if t.params {
			capacity += int64(s.n) * tensor.HalfBytes
		}
		if t.opt {
			capacity += int64(s.n) * 12
		}
		maxRegion = max(maxRegion, s.n*12)
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
	for i := range t.slots {
		if s := &t.slots[i]; s.n > 0 {
			if t.params {
				s.region, err = t.vol.Alloc("param/"+s.name, int64(s.n)*tensor.HalfBytes)
			}
			if t.opt && err == nil {
				s.optRegion, err = t.vol.Alloc("opt/"+s.name, int64(s.n)*12)
			}
			if err != nil {
				t.store.Close()
				return nil, fmt.Errorf("core: %w", err)
			}
		}
	}
	t.io = nvme.NewEngine(t.store, nvme.Options{Workers: nvmeWorkers})
	t.pinned = mem.NewPinnedPool(pinnedBuffers, maxRegion)
	if t.params {
		// One read more than the gather prefetcher's depth: a read only
		// feeds a speculative gather once it is two gathers old (Ready), so
		// with depth reads the synchronous gather consumes the next read
		// before it matures. Speculative reads must never hold the whole
		// pinned pool.
		t.depth = min(cfg.PrefetchDepth+1, pinnedBuffers-1)
	}
	return t, nil
}

// Close releases the I/O engine and the store.
func (t *nvmeTier) Close() {
	t.io.Close()
	t.store.Close()
}

// write synchronously persists buf[:r.Size] to region r on ticket tk; kind
// and name label an error.
func (t *nvmeTier) write(tk *nvme.Ticket, r nvme.Region, buf []byte, kind, name string) error {
	t.io.Issue(tk, nvme.Write, buf[:r.Size], r.Offset)
	return writeErr(tk.Wait(), kind, name)
}

func writeErr(err error, kind, name string) error {
	if err != nil {
		return fmt.Errorf("core: write %s/%s: %w", kind, name, err)
	}
	return nil
}

// Place implements zero.Tier.
func (t *nvmeTier) Place(i int, half []tensor.Half, master []float32) error {
	s := &t.slots[i]
	if !t.params {
		t.Half[i] = half
	} else if s.n > 0 {
		buf := make([]byte, s.region.Size)
		copy(tensor.HalfView(buf), half)
		if err := t.write(&s.halfIO, s.region, buf, "param", s.name); err != nil {
			return err
		}
	}
	if !t.opt {
		t.PlaceOpt(i, master)
	} else if s.n > 0 {
		buf := make([]byte, s.optRegion.Size)
		copy(tensor.F32View(buf), master) // momentum and variance start at zero
		return t.write(&s.io, s.optRegion, buf, "opt", s.name)
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
	buf := s.ahead
	if buf != nil {
		// Read ahead: the nc-transfer already happened (or is completing).
		s.ahead = nil
		t.outstanding--
		t.hits++
	} else {
		buf = t.pinned.Acquire()
		t.io.Issue(&s.io, nvme.Read, buf[:s.region.Size], s.region.Offset)
	}
	err := s.io.Wait()
	var half []tensor.Half
	if err == nil {
		half = t.F16.Get(s.n)
		copy(half, tensor.HalfView(buf[:s.region.Size]))
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
	s := &t.slots[i]
	return !t.bcast && s.ahead != nil && gathers-s.born >= 2
}

// ReadAhead implements zero.Tier. Reads are rank-local, so skipping a
// parameter this rank holds no shard of cannot desynchronize ranks.
func (t *nvmeTier) ReadAhead(i, gathers int) bool {
	if t.outstanding >= t.depth {
		return false
	}
	s := &t.slots[i]
	if s.n == 0 || s.ahead != nil {
		return true
	}
	buf, ok := t.pinned.TryAcquire()
	if !ok {
		return false // pool exhausted: back-pressure, stop speculating
	}
	t.io.Issue(&s.io, nvme.Read, buf[:s.region.Size], s.region.Offset)
	s.ahead, s.born = buf, gathers
	t.reading = append(t.reading, i)
	t.issued++
	t.outstanding++
	return true
}

// DrainReads implements zero.Tier.
func (t *nvmeTier) DrainReads() {
	for _, i := range t.reading {
		if s := &t.slots[i]; s.ahead != nil {
			_ = s.io.Wait() // abandoned read: only its buffer matters
			t.pinned.Release(s.ahead)
			s.ahead = nil
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
	buf := t.Bytes.Get(int(s.region.Size))
	t.Backend.EncodeHalf(tensor.HalfView(buf), master)
	err := t.write(&s.halfIO, s.region, buf, "param", s.name)
	t.Bytes.Put(buf)
	return err
}

// Update implements zero.Tier. With the optimizer state on NVMe it streams
// every parameter's [master|m|v] region through pinned staging buffers,
// applies Adam on the CPU in place in the buffer the read landed in, and
// writes that buffer and the refreshed fp16 shard back — the chunked,
// overlapped optimizer step of the infinity offload engine (paper Sec.
// 5.2.2). The read for parameter i+1 is issued before parameter i is
// processed and writes complete asynchronously; the bounded pinned pool
// provides back-pressure through readOpt, which reaps the oldest write-back
// when no buffer is free. Every write has landed when Update returns.
func (t *nvmeTier) Update(step int, owned []int, grads [][]float32) error {
	if !t.opt {
		for k, i := range owned {
			if err := t.putShard(i, t.Apply(step, i, grads[k])); err != nil {
				return err
			}
		}
		return nil
	}
	var next []byte
	if len(owned) > 0 {
		next = t.readOpt(owned[0])
	}
	for k, i := range owned {
		buf := next
		next = nil
		if k+1 < len(owned) {
			next = t.readOpt(owned[k+1])
		}
		s := &t.slots[i]
		if err := s.io.Wait(); err != nil {
			t.pinned.Release(buf)
			if next != nil {
				// The next read is already in flight holding a pinned
				// buffer; await it so releasing the buffer is safe.
				_ = t.slots[owned[k+1]].io.Wait()
				t.pinned.Release(next)
			}
			t.fail(fmt.Errorf("core: optimizer read %s: %w", s.name, err))
			break
		}
		rec := buf[:s.optRegion.Size]
		x := tensor.F32View(rec)
		master := x[:s.n]
		optim.StepVecOn(t.Backend, t.Adam, step, master, grads[k], x[s.n:2*s.n], x[2*s.n:])
		t.F32.Put(grads[k])
		t.io.Issue(&s.io, nvme.Write, rec, s.optRegion.Offset)

		// Refresh the fp16 parameter shard on its own tier.
		var half []byte
		if t.params {
			half = t.Bytes.Get(int(s.region.Size))
			t.Backend.EncodeHalf(tensor.HalfView(half), master)
			t.io.Issue(&s.halfIO, nvme.Write, half, s.region.Offset)
		} else {
			t.Backend.EncodeHalf(t.Half[i], master)
		}
		t.writes[(t.whead+t.wlen)%pinnedBuffers] = writeBack{slot: i, buf: buf, half: half}
		t.wlen++
	}
	for t.wlen > 0 {
		t.reapWrite()
	}
	err := t.firstErr
	t.firstErr = nil
	return err
}

// readOpt issues the read of parameter i's optimizer record into a pinned
// buffer and returns the buffer.
func (t *nvmeTier) readOpt(i int) []byte {
	s := &t.slots[i]
	buf, ok := t.pinned.TryAcquire()
	if !ok {
		// Every free buffer is under a pending write-back (reads hold at
		// most two of the pool's four), so the oldest one frees a buffer.
		t.reapWrite()
		buf = t.pinned.Acquire()
	}
	t.io.Issue(&s.io, nvme.Read, buf[:s.optRegion.Size], s.optRegion.Offset)
	return buf
}

// reapWrite waits for the oldest pending write-back and releases its
// buffers.
func (t *nvmeTier) reapWrite() {
	w := t.writes[t.whead]
	t.writes[t.whead] = writeBack{}
	t.whead = (t.whead + 1) % pinnedBuffers
	t.wlen--
	s := &t.slots[w.slot]
	t.fail(writeErr(s.io.Wait(), "opt", s.name))
	t.pinned.Release(w.buf)
	if w.half != nil {
		t.fail(writeErr(s.halfIO.Wait(), "param", s.name))
		t.Bytes.Put(w.half)
	}
}

// fail keeps the first error of the optimizer step.
func (t *nvmeTier) fail(err error) {
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// SaveOpt implements zero.Tier: an NVMe-resident record is the region's
// values, serialized little-endian like every rank-state record.
func (t *nvmeTier) SaveOpt(i int, w *bufio.Writer, codec *zero.VecCodec) error {
	if !t.opt {
		return t.Resident.SaveOpt(i, w, codec)
	}
	s := &t.slots[i]
	buf := t.Bytes.Get(int(s.optRegion.Size))
	t.io.Issue(&s.io, nvme.Read, buf, s.optRegion.Offset)
	err := s.io.Wait()
	if err == nil {
		err = codec.WriteVec(w, tensor.F32View(buf))
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
	x := tensor.F32View(buf)
	err := codec.ReadVec(r, x)
	if err == nil {
		err = t.write(&s.io, s.optRegion, buf, "opt", s.name)
	}
	if err == nil {
		err = t.putShard(i, x[:s.n])
	}
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
