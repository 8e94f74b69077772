package core

import (
	"bufio"
	"fmt"

	"repro/internal/module"
	"repro/internal/nvme"
	"repro/internal/optim"
	"repro/internal/tensor"
	"repro/internal/zero"
)

// nvmeTier is the infinity offload engine (paper Sec. 5-6): the zero.Tier
// that keeps the fp16 parameter shards, the fp32 [master|m|v] optimizer
// shards, or both, in regions of a per-rank NVMe store and streams every
// transfer through one ring of pinned staging buffers (Sec. 6.3). Whichever
// state class is not placed on NVMe stays in the embedded resident tier.
// Three uses of the ring make up the overlap-centric design's NVMe half
// (Sec. 6.2): read-ahead of the shards the next operators will gather, so
// the nc-transfer of parameter i+k overlaps the compute of parameter i; a
// streamed optimizer step that reads parameter i+1's state while parameter
// i updates; and asynchronous write-back.
//
// The ring is a fixed queue of pinnedBuffers entries, allocated once: each
// entry is a buffer sized to the largest record and its own nvme.Ticket, so
// the steady-state step starts no goroutine and allocates nothing. Entries
// are reaped oldest first, and pushing onto a full ring reaps the oldest; a
// read-ahead is consumed by its parameter's gather wherever it stands.
// During a step the ring holds only read-aheads, pushed on every rank — an
// empty entry where this rank holds no shard — and consumed by Shard, which
// the engine calls on every rank, so its contents, and Ready, are the same
// on every rank.
//
// Region bytes are the host-order memory of the values they hold, so a
// staging buffer is computed on where it lies, through tensor.F32View and
// tensor.HalfView: Adam updates the record in the buffer the read landed
// in, and that buffer is what is written back. Only the rank-state codec
// (SaveOpt/LoadOpt) converts, to the file's little-endian layout.
type nvmeTier struct {
	*zero.Resident
	params, opt bool // which state classes live on NVMe

	store nvme.Store
	vol   *nvme.Volume
	io    *nvme.Engine
	slots []nvmeSlot

	// n entries of the ring are in use; pushes numbers them in push order.
	ring      [pinnedBuffers]entry
	n, pushes int
	staged    int64 // transfers staged through the ring (Stats.PinnedAcquires)

	// depth bounds the read-ahead entries, strictly below the ring size so
	// a synchronous read always finds a free entry.
	depth        int
	issued, hits int
	// firstErr is the first failed transfer since the last flush.
	firstErr error
}

// nvmeSlot is one parameter's NVMe-side state.
type nvmeSlot struct {
	name string
	n    int // shard length (0: another rank owns the parameter)
	// region holds the fp16 shard, optRegion the f32 values of master||m||v
	// — on a little-endian host exactly the rank-state record's bytes.
	region, optRegion nvme.Region
}

// entry is one staging buffer of the ring and, while busy, the request it
// carries for parameter slot: a read (a read-ahead, issued at gather count
// born), or a write-back. seq is its place in push order; pending: the
// request has not been waited yet.
type entry struct {
	buf           []byte
	tk            nvme.Ticket
	slot, born    int
	seq           int
	busy, pending bool
}

// The tier's staging geometry is fixed, like the paper's pinned-memory
// layer (Sec. 6.3): pinnedBuffers ring entries, each sized to the largest
// optimizer record, and nvmeWorkers parallel I/O workers.
const (
	pinnedBuffers = 4
	nvmeWorkers   = 4
)

// newNVMeTier sizes and opens the store, its regions and the ring for this
// rank's shards of g's parameters.
func newNVMeTier(cfg Config, rank, dp int, g zero.Model, sc zero.Scratch) (*nvmeTier, error) {
	ps := module.AllParams(g)
	t := &nvmeTier{
		Resident: zero.NewResident(len(ps), cfg.Backend, cfg.Adam, sc),
		params:   cfg.Params == zero.OnNVMe,
		opt:      cfg.Optimizer == zero.OnNVMe,
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
	for k := range t.ring {
		t.ring[k].buf = make([]byte, maxRegion)
	}
	if t.params {
		// One read more than the gather prefetcher's depth: a read only
		// feeds a speculative gather once it is two gathers old (Ready), so
		// with depth reads the synchronous gather consumes the next read
		// before it matures.
		t.depth = min(cfg.PrefetchDepth+1, pinnedBuffers-1)
	}
	return t, nil
}

// Close releases the I/O engine and the store.
func (t *nvmeTier) Close() {
	t.io.Close()
	t.store.Close()
}

// pinnedBytes is the ring's staging memory, constant for the tier's life.
func (t *nvmeTier) pinnedBytes() int64 { return pinnedBuffers * int64(len(t.ring[0].buf)) }

// ioErr labels a failed transfer of parameter name: the tier's one
// error-formatting path, kept off the per-step methods.
func ioErr(err error, what, name string) error {
	if err != nil {
		return fmt.Errorf("core: %s %s: %w", what, name, err)
	}
	return nil
}

// push takes a free entry for parameter i, reaping the oldest entry first
// when every entry is in use.
//
//zinf:hotpath
func (t *nvmeTier) push(i int) *entry {
	if t.n == pinnedBuffers {
		t.reap()
	}
	k := 0
	for t.ring[k].busy {
		k++
	}
	e := &t.ring[k]
	e.slot, e.seq, e.busy = i, t.pushes, true
	t.pushes++
	t.n++
	return e
}

// stage issues op on region r from e's buffer, which a write has filled.
//
//zinf:hotpath
func (t *nvmeTier) stage(e *entry, op nvme.Op, r nvme.Region) {
	t.io.Issue(&e.tk, op, e.buf[:r.Size], r.Offset)
	e.pending = true
	t.staged++
}

// wait waits e's request, if it has one not yet waited.
//
//zinf:hotpath
func (e *entry) wait() error {
	if !e.pending {
		return nil
	}
	e.pending = false
	return e.tk.Wait()
}

// release frees e, whose request has been waited.
//
//zinf:hotpath
func (t *nvmeTier) release(e *entry) {
	e.busy = false
	t.n--
}

// reap retires the oldest entry once its request has completed, keeping a
// failure for the flush. A consumed read was waited by its consumer; the
// failures of read-aheads nobody consumed DrainReads discards.
//
//zinf:hotpath
func (t *nvmeTier) reap() {
	var e *entry
	for k := range t.ring {
		if c := &t.ring[k]; c.busy && (e == nil || c.seq < e.seq) {
			e = c
		}
	}
	t.fail(e.wait())
	t.release(e)
}

// fail keeps the first error of the flush window.
//
//zinf:hotpath
func (t *nvmeTier) fail(err error) {
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// flush reaps every entry and returns the first failed transfer since the
// last flush.
//
//zinf:hotpath
func (t *nvmeTier) flush() error {
	for t.n > 0 {
		t.reap()
	}
	err := t.firstErr
	t.firstErr = nil
	return err
}

// find returns parameter i's read-ahead entry, nil if the ring holds none.
//
//zinf:hotpath
func (t *nvmeTier) find(i int) *entry {
	for k := range t.ring {
		if e := &t.ring[k]; e.busy && e.slot == i {
			return e
		}
	}
	return nil
}

// Place implements zero.Tier.
func (t *nvmeTier) Place(i int, half []tensor.Half, master []float32) error {
	s := &t.slots[i]
	if !t.params {
		t.Half[i] = half
	} else if s.n > 0 {
		e := t.push(i)
		copy(tensor.HalfView(e.buf[:s.region.Size]), half)
		t.stage(e, nvme.Write, s.region)
	}
	if !t.opt {
		t.PlaceOpt(i, master)
	} else if s.n > 0 {
		e := t.push(i)
		x := tensor.F32View(e.buf[:s.optRegion.Size])
		clear(x[copy(x, master):]) // momentum and variance start at zero
		t.stage(e, nvme.Write, s.optRegion)
	}
	return ioErr(t.flush(), "place", s.name)
}

// Shard implements zero.Tier: parameter i's read-ahead is consumed,
// otherwise the shard is read synchronously. An empty shard (another rank's
// parameter) is nil. The returned slice is Scratch; Done recycles it.
//
//zinf:hotpath
func (t *nvmeTier) Shard(i int) []tensor.Half {
	if !t.params {
		return t.Half[i]
	}
	s := &t.slots[i]
	e := t.find(i)
	if e != nil {
		if s.n > 0 {
			t.hits++
		}
	} else {
		e = t.push(i)
		if s.n > 0 {
			t.stage(e, nvme.Read, s.region)
		}
	}
	err := e.wait()
	half := t.F16.Get(s.n)
	copy(half, tensor.HalfView(e.buf[:s.region.Size]))
	t.release(e)
	if err != nil {
		panic(ioErr(err, "read shard", s.name))
	}
	return half
}

// Done implements zero.Tier.
//
//zinf:hotpath
func (t *nvmeTier) Done(shard []tensor.Half) {
	if t.params {
		t.F16.Put(shard)
	}
}

// Ready implements zero.Tier: a shard can be gathered speculatively once its
// read-ahead is two gathers old. The ring's entries are pushed and consumed
// in the gather sequence on every rank, I/O or not, so every rank answers
// identically.
//
//zinf:hotpath
func (t *nvmeTier) Ready(i, gathers int) bool {
	if !t.params {
		return true
	}
	e := t.find(i)
	return e != nil && gathers-e.born >= 2
}

// ReadAhead implements zero.Tier: it pushes an entry for parameter i unless
// the ring holds one, reading the shard if this rank holds one.
//
//zinf:hotpath
func (t *nvmeTier) ReadAhead(i, gathers int) bool {
	if t.n >= t.depth {
		return false
	}
	if t.find(i) != nil {
		return true
	}
	e := t.push(i)
	e.born = gathers
	if s := &t.slots[i]; s.n > 0 {
		t.stage(e, nvme.Read, s.region)
		t.issued++
	}
	return true
}

// DrainReads implements zero.Tier. The ring holds only read-aheads here,
// and an abandoned read's failure matters to no one.
//
//zinf:hotpath
func (t *nvmeTier) DrainReads() { _ = t.flush() }

// putShard rebuilds parameter i's fp16 shard from its master on its tier;
// on NVMe the write-back is left in the ring for the next flush.
//
//zinf:hotpath
func (t *nvmeTier) putShard(i int, master []float32) {
	if !t.params {
		t.Backend.EncodeHalf(t.Half[i], master)
		return
	}
	s := &t.slots[i]
	e := t.push(i)
	t.Backend.EncodeHalf(tensor.HalfView(e.buf[:s.region.Size]), master)
	t.stage(e, nvme.Write, s.region)
}

// Update implements zero.Tier. With the optimizer state on NVMe it streams
// every parameter's [master|m|v] record through the ring, applies Adam on
// the CPU in place in the buffer the read landed in, and re-issues that
// entry as the record's write-back, followed by the refreshed fp16 shard's
// — the chunked, overlapped optimizer step of the infinity offload engine
// (paper Sec. 5.2.2). The read for parameter i+1 is issued before parameter
// i is processed; pushing onto the full ring reaps the oldest write-back,
// never parameter i's entry: it, the fp16 write-back pushed after it and the
// next read are at most three of the four. Every write has landed when
// Update returns; a failed transfer's error is returned as the device
// reported it.
//
//zinf:hotpath
func (t *nvmeTier) Update(step int, owned []int, grads [][]float32) error {
	if !t.opt {
		for k, i := range owned {
			t.putShard(i, t.Apply(step, i, grads[k]))
		}
		return t.flush()
	}
	var next *entry
	if len(owned) > 0 {
		next = t.readOpt(owned[0])
	}
	for k, i := range owned {
		e := next
		if k+1 < len(owned) {
			next = t.readOpt(owned[k+1])
		}
		if err := e.wait(); err != nil {
			t.fail(err)
			break
		}
		s := &t.slots[i]
		x := tensor.F32View(e.buf[:s.optRegion.Size])
		master := x[:s.n]
		optim.StepVecOn(t.Backend, t.Adam, step, master, grads[k], x[s.n:2*s.n], x[2*s.n:])
		t.F32.Put(grads[k])
		t.stage(e, nvme.Write, s.optRegion)
		t.putShard(i, master)
	}
	return t.flush()
}

// readOpt pushes the read of parameter i's optimizer record.
//
//zinf:hotpath
func (t *nvmeTier) readOpt(i int) *entry {
	e := t.push(i)
	t.stage(e, nvme.Read, t.slots[i].optRegion)
	return e
}

// SaveOpt implements zero.Tier: an NVMe-resident record is the region's
// values, serialized little-endian like every rank-state record.
func (t *nvmeTier) SaveOpt(i int, w *bufio.Writer, codec *zero.VecCodec) error {
	if !t.opt {
		return t.Resident.SaveOpt(i, w, codec)
	}
	s := &t.slots[i]
	e := t.readOpt(i)
	err := ioErr(e.wait(), "read opt", s.name)
	if err == nil {
		err = codec.WriteVec(w, tensor.F32View(e.buf[:s.optRegion.Size]))
	}
	t.release(e)
	return err
}

// LoadOpt implements zero.Tier.
func (t *nvmeTier) LoadOpt(i int, r *bufio.Reader, codec *zero.VecCodec) error {
	s := &t.slots[i]
	if !t.opt {
		master, err := t.ReadOpt(i, r, codec)
		if err != nil {
			return err
		}
		t.putShard(i, master)
		return ioErr(t.flush(), "load", s.name)
	}
	e := t.push(i)
	x := tensor.F32View(e.buf[:s.optRegion.Size])
	if err := codec.ReadVec(r, x); err != nil {
		t.release(e)
		return err
	}
	t.stage(e, nvme.Write, s.optRegion)
	t.putShard(i, x[:s.n])
	return ioErr(t.flush(), "load", s.name)
}

// addStats fills the tier's share of the engine statistics.
func (t *nvmeTier) addStats(s *Stats) {
	st := t.io.Stats()
	s.NVMeBytesRead, s.NVMeBytesWritten = st.BytesRead, st.BytesWritten
	s.PinnedBytes, s.PinnedAcquires = t.pinnedBytes(), t.staged
	s.PrefetchIssued, s.PrefetchHits = t.issued, t.hits
}

var _ zero.Tier = (*nvmeTier)(nil)
