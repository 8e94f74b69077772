package zero

import (
	"bufio"

	"repro/internal/mem"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// Scratch is an engine's set of recycling arenas: every transient hot-path
// buffer — gathered views, padded gradient buffers, reduced shards, staging
// bytes — is drawn from and returned to them, which is what makes a
// steady-state step allocation-free. The engine shares its Scratch with its
// Tier so a shard buffer can be handed across without a copy.
type Scratch struct {
	F32   *mem.Arena[float32]
	F16   *mem.Arena[tensor.Half]
	Bytes *mem.Arena[byte]
}

// NewScratch returns empty arenas.
func NewScratch() Scratch {
	return Scratch{F32: mem.NewArena[float32](), F16: mem.NewArena[tensor.Half](), Bytes: mem.NewArena[byte]()}
}

// Tier is where one rank's partitioned model state lives: the fp16 shard of
// every parameter and the fp32 [master|m|v] optimizer shard behind it. The
// stage-3 engine never touches that storage directly — it asks the tier for
// a shard to gather, and hands it reduced gradients to apply — so placement
// (paper Table 2: GPU, CPU, NVMe) is this one decision and nothing else in
// the engine branches on it. Resident keeps the state in process memory;
// internal/core's NVMe tier streams it through pinned staging buffers.
// Parameters are addressed by their index in module.AllParams order.
//
// A tier moves bytes, never values, so training is bit-identical across
// tiers.
type Tier interface {
	// Place stores parameter i's fp16 shard and fp32 master copy and zeroes
	// its Adam moments (partitioned initialization, LoadParams). The tier
	// owns both slices afterwards. Zero-length shards — parameters another
	// rank owns under owner-rank partitioning — hold no storage.
	Place(i int, half []tensor.Half, master []float32) error
	// Shard returns parameter i's fp16 shard as the source of a gather,
	// fetching it from its device if need be; Done takes it back once the
	// collective has completed. The engine asks on every rank, so a tier
	// sees the same sequence of Shard calls everywhere. A tier that cannot
	// produce the shard panics: the failure is local to this rank while its
	// peers are already committed to the collective the shard feeds, so no
	// step error could be returned without leaving them waiting.
	Shard(i int) []tensor.Half
	Done(shard []tensor.Half)
	// Ready reports whether Shard(i) can be had without stalling, so that a
	// gather may be issued speculatively. The answer must be the same on
	// every rank: a pure function of the gather sequence (gathers is the
	// engine's running gather count), never of I/O completion timing nor of
	// which rank holds the shard — a broadcast is speculated on every rank
	// or on none.
	Ready(i, gathers int) bool
	// ReadAhead starts fetching parameter i's shard ahead of its gather and
	// reports whether the engine should keep offering upcoming parameters
	// (false: the read-ahead budget is spent). It is offered the same
	// parameters on every rank. DrainReads abandons the fetches the step
	// never consumed.
	ReadAhead(i, gathers int) bool
	DrainReads()
	// Update applies Adam step number step to the listed parameters'
	// optimizer shards over their unscaled gradient shards (parallel
	// slices) and refreshes the fp16 shards from the new masters. It takes
	// the gradient buffers over, recycling them into the Scratch.
	Update(step int, owned []int, grads [][]float32) error
	// SaveOpt and LoadOpt move parameter i's [master|m|v] record to and from
	// a rank-state stream (statecodec.go layout); LoadOpt also rebuilds the
	// fp16 shard, a pure function of the master.
	SaveOpt(i int, w *bufio.Writer, codec *VecCodec) error
	LoadOpt(i int, r *bufio.Reader, codec *VecCodec) error
	// Close releases the tier's devices.
	Close()
}

// Budget accounts every materialized parameter's fp16 footprint against a
// device-memory budget (mem.Allocator). An Alloc failure aborts the step and
// surfaces as its error — the CUDA-OOM analogue.
type Budget interface {
	Alloc(size int64) (mem.Block, error)
	Release(mem.Block)
}

// OptShard is one parameter's fp32 optimizer shard.
type OptShard struct{ Master, M, V []float32 }

// Resident is the Tier that keeps shards in process memory — ZeRO-3, and
// ZeRO-Infinity's GPU and CPU placements, which differ only in where a real
// system would put the same bytes. The NVMe tier embeds one for whichever
// state class stays off NVMe, which is why the fields are exported, and the
// replicated stages' replicaTier embeds one with the Half slots empty.
type Resident struct {
	Scratch
	Backend tensor.Backend
	Adam    optim.AdamConfig

	Half [][]tensor.Half
	Opt  []OptShard
}

// NewResident returns an empty resident tier for n parameters.
func NewResident(n int, be tensor.Backend, adam optim.AdamConfig, sc Scratch) *Resident {
	return &Resident{Scratch: sc, Backend: be, Adam: adam, Half: make([][]tensor.Half, n), Opt: make([]OptShard, n)}
}

// Place implements Tier.
func (t *Resident) Place(i int, half []tensor.Half, master []float32) error {
	t.Half[i] = half
	t.PlaceOpt(i, master)
	return nil
}

// PlaceOpt stores parameter i's master copy with zeroed moments.
func (t *Resident) PlaceOpt(i int, master []float32) {
	t.Opt[i] = OptShard{Master: master, M: make([]float32, len(master)), V: make([]float32, len(master))}
}

// Shard implements Tier: the shard is its own authoritative storage.
//
//zinf:hotpath
func (t *Resident) Shard(i int) []tensor.Half { return t.Half[i] }

// Done implements Tier.
//
//zinf:hotpath
func (t *Resident) Done([]tensor.Half) {}

// Ready implements Tier.
//
//zinf:hotpath
func (t *Resident) Ready(int, int) bool { return true }

// ReadAhead implements Tier: nothing to fetch.
//
//zinf:hotpath
func (t *Resident) ReadAhead(int, int) bool { return false }

// DrainReads implements Tier.
//
//zinf:hotpath
func (t *Resident) DrainReads() {}

// Update implements Tier.
//
//zinf:hotpath
func (t *Resident) Update(step int, owned []int, grads [][]float32) error {
	for k, i := range owned {
		t.Backend.EncodeHalf(t.Half[i], t.Apply(step, i, grads[k]))
	}
	return nil
}

// Apply runs the Adam update on parameter i's optimizer shard, recycles the
// gradient buffer and returns the updated master.
//
//zinf:hotpath
func (t *Resident) Apply(step, i int, grad []float32) []float32 {
	o := &t.Opt[i]
	optim.StepVecOn(t.Backend, t.Adam, step, o.Master, grad, o.M, o.V)
	t.F32.Put(grad)
	return o.Master
}

// SaveOpt implements Tier.
func (t *Resident) SaveOpt(i int, w *bufio.Writer, codec *VecCodec) error {
	o := &t.Opt[i]
	for _, vec := range [][]float32{o.Master, o.M, o.V} {
		if err := codec.WriteVec(w, vec); err != nil {
			return err
		}
	}
	return nil
}

// ReadOpt fills parameter i's optimizer shard from a rank-state record and
// returns the restored master.
func (t *Resident) ReadOpt(i int, r *bufio.Reader, codec *VecCodec) ([]float32, error) {
	o := &t.Opt[i]
	for _, dst := range [][]float32{o.Master, o.M, o.V} {
		if err := codec.ReadVec(r, dst); err != nil {
			return nil, err
		}
	}
	return o.Master, nil
}

// LoadOpt implements Tier.
func (t *Resident) LoadOpt(i int, r *bufio.Reader, codec *VecCodec) error {
	master, err := t.ReadOpt(i, r, codec)
	if err == nil {
		t.Backend.EncodeHalf(t.Half[i], master)
	}
	return err
}

// Close implements Tier.
func (t *Resident) Close() {}

// replicaTier is the Tier of the replicated stages (DDP, ZeRO-1/2,
// ZeRO-Offload): a Resident optimizer store whose Half slots stay empty,
// because each parameter's own Data() is the one fp16-valued copy of the
// weights. Its Update rebuilds those weights from the new masters. The
// engine never gathers a replicated parameter, so Shard is never called.
type replicaTier struct {
	*Resident
	e *ShardedEngine
}

// Update implements Tier.
//
//zinf:hotpath
func (t *replicaTier) Update(step int, owned []int, grads [][]float32) error {
	for k, i := range owned {
		master := t.Apply(step, i, grads[k])
		if t.e.cfg.OffloadOptimizer {
			t.e.BytesFromCPU += int64(len(master)) * tensor.HalfBytes // the updated shard returns to the GPU
		}
		t.materialize(i, master)
	}
	return nil
}

// materialize rebuilds parameter i's replicated fp16 weights in its Data()
// from its fp32 master: encoded and decoded in place under DDP; under
// ZeRO-1/2 a fused encode+allgather, in which each rank's master shard is
// rounded to fp16 once inside the collective.
//
//zinf:hotpath
func (t *replicaTier) materialize(i int, master []float32) {
	p := t.e.params[i]
	if t.e.cfg.Stage == StageDDP {
		h := t.F16.Get(len(master))
		t.Backend.EncodeHalf(h, master)
		t.Backend.DecodeHalf(p.Data(), h)
		t.F16.Put(h)
		return
	}
	full := t.F16.Get(len(master) * t.e.c.Size())
	t.e.c.AllGatherEncodeHalf(full, master)
	t.Backend.DecodeHalf(p.Data(), full[:p.Len()])
	t.F16.Put(full)
}

// LoadOpt implements Tier: the weights are rebuilt once every record is
// read (see ShardedEngine.LoadRankState), since under ZeRO-1/2 that is a
// collective.
func (t *replicaTier) LoadOpt(i int, r *bufio.Reader, codec *VecCodec) error {
	_, err := t.ReadOpt(i, r, codec)
	return err
}

var (
	_ Tier = (*Resident)(nil)
	_ Tier = (*replicaTier)(nil)
)
