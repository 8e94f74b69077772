package zero

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/module"
	"repro/internal/optim"
	"repro/internal/overlap"
	"repro/internal/tensor"
)

// ShardedEngine is the one engine body for every row of the paper's Table 2
// that this package runs: data parallelism, ZeRO-1/2, ZeRO-Offload, ZeRO-3
// and — with a different Tier behind it — ZeRO-Infinity (paper Secs. 5-7,
// which build Infinity on ZeRO-3). cfg.Stage decides what is partitioned
// across the data-parallel ranks and, with it, where parameters reside:
//
//   - Stage3 partitions every model state: bandwidth-centric 1/dp slicing of
//     each parameter (Sec. 6.1) or the owner-rank baseline. Hooks injected
//     through the module runtime gather a submodule's parameters right
//     before its forward/backward and re-partition them right after (Sec.
//     7.1); parameters accessed across module boundaries are auto-registered
//     as external through the on-demand Data() interception. With Overlap
//     the gathers are speculated along the learned gather trace and the
//     gradient reductions run asynchronously (Sec. 6.2, overlap.go).
//   - StageDDP, Stage1 and Stage2 replicate the parameters: each stays
//     materialized in its own Data() for the whole run, so the hooks gather
//     and release nothing and only reduce gradients (asynchronously too
//     under Overlap). The optimizer state is the full vector under DDP and
//     this rank's 1/dp shard otherwise; the replica tier (tier.go) rebuilds
//     the weights after each update.
//
// Where the fp16 parameter shards and fp32 optimizer shards live is the
// Tier's business (tier.go); the engine body holds only transient state. All
// transient buffers cycle through the Scratch arenas, so a steady-state step
// performs zero heap allocations in the engine+comm+tensor hot path
// (asserted by TestSteadyStateZeroAllocs).
type ShardedEngine struct {
	cfg    Config
	c      *comm.Comm
	g      Model
	rt     *module.Runtime
	params []*module.Param
	states map[*module.Param]*pstate

	// owned lists the parameters whose reduced gradient and optimizer shard
	// this rank holds — all of them under 1/dp slicing, the round-robin
	// subset under owner-rank broadcast partitioning — and ownedIdx their
	// tier indices.
	owned    []*pstate
	ownedIdx []int

	tier   Tier
	budget Budget                 // nil: unlimited
	ckpt   module.CheckpointStore // nil: checkpoints stay in the step arena
	sc     Scratch

	scaler    *optim.LossScaler
	stepCount int // optimizer steps applied (shared by every shard's Adam)

	// external records params auto-registered against modules that access
	// them across boundaries; active is the current hook scope stack.
	external map[module.Module][]*module.Param
	active   []module.Module

	// Overlap-centric pieces (paper Sec. 6.2): trace is the learned gather
	// sequence shared by the gather prefetcher and the tier's read-ahead;
	// pendingReduces holds the issued gradient reductions still in flight,
	// oldest first — at most reduceWindow of them, none between hooks
	// without Overlap.
	trace          *overlap.Trace[*pstate]
	prefetch       *gatherPrefetcher
	pendingReduces []pendingReduce

	// Reused step scratch.
	shardsBuf, clipBuf [][]float32
	microTok, microTgt [][]int
	meter              AllocMeter

	// live/peakLive track the fp16 footprint of simultaneously materialized
	// parameters.
	live, peakLive int64

	// Observability (cumulative, except AllocsPerStep).
	Gathers         int    // gather collectives consumed
	OnDemandGathers int    // gathers triggered by external-parameter access
	PrefetchIssued  int    // speculative gathers issued
	PrefetchHits    int    // gathers served by a speculative gather
	AsyncReduces    int    // gradient reductions launched asynchronously
	AllocsPerStep   uint64 // heap allocations during the last step (process-global mallocs delta)

	// BytesToCPU and BytesFromCPU are ZeRO-Offload's GPU<->CPU traffic:
	// reduced gradient shards down, updated fp16 shards back up.
	BytesToCPU, BytesFromCPU int64
}

// pstate is the engine's transient per-parameter state.
type pstate struct {
	p     *module.Param
	idx   int // index in module.AllParams order; the Tier's handle
	owner module.Module
	// shardLen is this rank's shard length: the padded 1/dp slice, the
	// whole parameter under DDP, or under owner-rank partitioning the whole
	// parameter on rank bcastRoot and 0 elsewhere (bcastRoot is -1 otherwise).
	shardLen  int
	bcastRoot int
	// gradShard holds the reduced (still loss-scaled) fp32 gradient shard
	// between backward and the optimizer phase.
	gradShard []float32
	block     mem.Block      // Budget allocation while materialized
	spec      inflightGather // issued gather, by value
}

// Attachments are what internal/core hangs on the engine body to make it
// ZeRO-Infinity. The zero value is plain ZeRO-3.
type Attachments struct {
	// Scratch is the arena set Tier was built over (zero: fresh arenas).
	Scratch Scratch
	// Tier places the shards (nil: Resident).
	Tier Tier
	// Budget bounds the gathered working set (nil: unlimited).
	Budget Budget
	// Checkpoints offloads activation checkpoints (nil: kept in place).
	Checkpoints module.CheckpointStore
}

// stepAbort is the panic the gather hook raises to abandon the running step
// when the Budget is exhausted; StepAccum recovers it. Whether a gather fits
// is a pure function of the gather sequence, so every rank aborts at the same
// gather.
type stepAbort struct{ err error }

// ResidentEngine is the engine body over resident state with nothing
// attached, so its steps cannot fail: what NewZ3Engine and NewDPEngine
// return.
type ResidentEngine struct{ *ShardedEngine }

// NewZ3Engine builds the stage-3 engine for one rank over resident shards;
// cfg.Stage is ignored.
func NewZ3Engine(cfg Config, c *comm.Comm, g Model) (*ResidentEngine, error) {
	cfg.Stage = Stage3
	return newResidentEngine(cfg, c, g)
}

// NewDPEngine builds the replicated-parameter engine for one rank: DDP,
// ZeRO-1, ZeRO-2, or ZeRO-Offload (Stage2 with OffloadOptimizer). Stage3 is
// rejected.
func NewDPEngine(cfg Config, c *comm.Comm, g Model) (*ResidentEngine, error) {
	if cfg.Stage == Stage3 {
		return nil, fmt.Errorf("zero: NewDPEngine does not support stage3; use NewZ3Engine")
	}
	return newResidentEngine(cfg, c, g)
}

func newResidentEngine(cfg Config, c *comm.Comm, g Model) (*ResidentEngine, error) {
	e, err := NewShardedEngine(cfg, c, g, Attachments{})
	if err != nil {
		return nil, err
	}
	return &ResidentEngine{e}, nil
}

// Step runs one training step on this rank's batch.
//
//zinf:hotpath
func (e *ResidentEngine) Step(tokens, targets []int, batch int) StepResult {
	res, err := e.ShardedEngine.Step(tokens, targets, batch)
	if err != nil {
		panic(err) // nothing attached can fail a step: a bug
	}
	return res
}

// NewShardedEngine builds the engine for cfg.Stage over the given
// attachments. Under Stage3 it performs partitioned initialization: each
// parameter's full init values exist only transiently before being sharded
// onto the tier (paper Sec. 7.2). The replicated stages keep those values as
// the parameter's resident weights and take no Tier attachment.
func NewShardedEngine(cfg Config, c *comm.Comm, g Model, at Attachments) (*ShardedEngine, error) {
	cfg.setDefaults()
	if cfg.Stage != Stage3 {
		cfg.Partition = PartitionSlice // replicated parameters are not partitioned
	}
	e := &ShardedEngine{
		cfg:      cfg,
		c:        c,
		g:        g,
		params:   module.AllParams(g),
		states:   make(map[*module.Param]*pstate),
		tier:     at.Tier,
		budget:   at.Budget,
		ckpt:     at.Checkpoints,
		sc:       at.Scratch,
		external: make(map[module.Module][]*module.Param),
	}
	if e.sc.F32 == nil {
		e.sc = NewScratch()
	}
	switch {
	case e.replicated() && e.tier != nil:
		return nil, fmt.Errorf("zero: a %s engine keeps its optimizer state resident; it takes no Tier", cfg.Stage)
	case e.replicated():
		e.tier = &replicaTier{Resident: NewResident(len(e.params), cfg.Backend, cfg.Adam, e.sc), e: e}
	case e.tier == nil:
		e.tier = NewResident(len(e.params), cfg.Backend, cfg.Adam, e.sc)
	}
	if cfg.DynamicLossScale {
		e.scaler = optim.NewLossScaler(cfg.LossScale)
	} else {
		e.scaler = optim.StaticLossScaler(cfg.LossScale)
	}
	e.rt = module.NewRuntime(e)
	e.rt.SetBackend(cfg.Backend)
	e.rt.SetStepArena(mem.NewStepArena())
	if e.ckpt != nil {
		e.rt.SetCheckpointStore(e.ckpt)
	}
	owners := make(map[*module.Param]module.Module)
	module.Walk(g, func(m module.Module) {
		for _, p := range m.Params() {
			owners[p] = m
		}
	})
	for i, p := range e.params {
		ps := &pstate{p: p, idx: i, owner: owners[p], bcastRoot: -1,
			shardLen: ShardLen(cfg.Partition, i, p.Len(), c.Rank(), c.Size())}
		switch {
		case cfg.Stage == StageDDP:
			ps.shardLen = p.Len()
		case cfg.Partition == PartitionBroadcast:
			ps.bcastRoot = i % c.Size()
		}
		e.states[p] = ps
		var full []float32
		if ps.shardLen > 0 {
			full = model.InitValues(p, cfg.Seed) // transient full copy under Stage3
			e.owned = append(e.owned, ps)
			e.ownedIdx = append(e.ownedIdx, i)
		}
		if err := e.place(ps, full); err != nil {
			return nil, err
		}
		if e.replicated() {
			p.SetData(full)
		} else {
			p.SetOnDemand(e.onDemand)
		}
		p.SetGradScratch(e.sc.F32.Get, e.sc.F32.Put)
	}
	if cfg.PrefetchDepth > 0 && !e.replicated() {
		e.trace = overlap.New[*pstate](cfg.PrefetchDepth)
		if cfg.Overlap {
			e.prefetch = &gatherPrefetcher{e: e, depth: cfg.PrefetchDepth}
		}
	}
	return e, nil
}

// replicated reports whether parameters stay materialized on every rank
// (every stage below Stage3).
//
//zinf:hotpath
func (e *ShardedEngine) replicated() bool { return e.cfg.Stage != Stage3 }

// ShardLen returns rank's fp16 shard length for the i-th parameter (n
// elements) under the partitioning strategy: the padded 1/dp slice, or the
// whole parameter on its round-robin owner and 0 elsewhere.
func ShardLen(part Partitioning, i, n, rank, dp int) int {
	if part == PartitionBroadcast {
		if i%dp == rank {
			return n
		}
		return 0
	}
	return comm.ShardLen(n, dp)
}

// place cuts this rank's shard out of a parameter's full fp16-representable
// values and hands it to the tier with fresh optimizer state. A replicated
// parameter's fp16 values are its own Data(), so it gets no fp16 shard.
func (e *ShardedEngine) place(ps *pstate, full []float32) error {
	fs := make([]float32, ps.shardLen)
	if ps.bcastRoot >= 0 || e.cfg.Stage == StageDDP {
		copy(fs, full)
	} else if ps.shardLen > 0 {
		comm.Shard(fs, full, e.c.Rank(), e.c.Size())
	}
	var half []tensor.Half
	if !e.replicated() {
		half = make([]tensor.Half, ps.shardLen)
		tensor.EncodeHalf(half, fs)
	}
	return e.tier.Place(ps.idx, half, fs)
}

// Close releases the tier's resources (a no-op for resident shards).
func (e *ShardedEngine) Close() { e.tier.Close() }

// Model returns the wrapped model.
func (e *ShardedEngine) Model() Model { return e.g }

// Runtime returns the hook runtime; all forward/backward calls must go
// through it.
func (e *ShardedEngine) Runtime() *module.Runtime { return e.rt }

// LossScale returns the current loss scale.
func (e *ShardedEngine) LossScale() float64 { return e.scaler.Scale }

// gather materializes p's full fp16-rounded values: a fused
// allgather+decode of the 1/dp slices under PartitionSlice (the collective
// delivers float32 directly, skipping the full-size intermediate fp16 pass),
// a broadcast from the owning rank under PartitionBroadcast (fp16 on the
// wire, decoded here). With prefetch enabled, a speculatively issued
// collective is claimed instead of issuing a fresh one, and collectives and
// tier reads for the next trace entries are issued before returning to
// compute.
//
//zinf:hotpath
func (e *ShardedEngine) gather(p *module.Param) {
	if p.Materialized() {
		return
	}
	ps := e.states[p]
	if e.trace != nil {
		e.trace.Observe(ps)
	}
	if ps.spec.inFlight() {
		e.prefetch.outstanding--
		e.PrefetchHits++
	} else {
		e.issueGather(ps)
	}
	full := e.awaitGather(ps)
	if e.budget != nil {
		b, err := e.budget.Alloc(p.FP16Bytes())
		if err != nil {
			e.sc.F32.Put(full)
			panic(stepAbort{fmt.Errorf("gathering %s: %w", p.Name, err)})
		}
		ps.block = b
	}
	p.SetData(full[:p.Len()])
	if e.live += p.FP16Bytes(); e.live > e.peakLive {
		e.peakLive = e.live
	}
	e.Gathers++
	if e.trace != nil {
		if e.prefetch != nil {
			e.prefetch.issue() // chain gathers onto completed tier reads first
		}
		e.readAhead() // then replenish the tier's read-ahead window
	}
}

// issueGather starts ps's gather into ps.spec — the one place a parameter
// gather starts, whether it is awaited at once or speculated ahead: a fused
// allgather+decode of the 1/dp slices into a float32 buffer, or under
// PartitionBroadcast a broadcast from the owning rank into a full-length
// fp16 view (issued on every rank; only the owner's contribution, its whole
// shard, is read, and stale arena contents elsewhere are overwritten).
//
//zinf:hotpath
func (e *ShardedEngine) issueGather(ps *pstate) {
	shard := e.tier.Shard(ps.idx)
	if ps.bcastRoot >= 0 {
		fullH := e.sc.F16.Get(ps.p.Len())
		copy(fullH, shard) // the owner's whole shard; empty elsewhere
		e.tier.Done(shard)
		ps.spec = inflightGather{ticket: e.c.BroadcastHalfAsync(fullH, ps.bcastRoot), fullH: fullH}
		return
	}
	full := e.sc.F32.Get(ps.shardLen * e.c.Size())
	ps.spec = inflightGather{ticket: e.c.AllGatherHalfDecodeAsync(full, shard), full: full, shard: shard}
}

// awaitGather completes ps's issued gather — the one place a gather
// completes — and returns the gathered float32 values (at least p.Len() of
// them, from the F32 arena; the caller owns returning them): it waits,
// hands the shard back to the tier, and under PartitionBroadcast decodes the
// fp16 view.
//
//zinf:hotpath
func (e *ShardedEngine) awaitGather(ps *pstate) []float32 {
	f := &ps.spec
	f.ticket.Wait()
	e.tier.Done(f.shard)
	full := f.full
	if full == nil {
		full = e.sc.F32.Get(ps.p.Len())
		e.rt.Backend().DecodeHalf(full, f.fullH[:ps.p.Len()])
		e.sc.F16.Put(f.fullH)
	}
	*f = inflightGather{}
	return full
}

// readAhead offers the tier the upcoming trace entries, in order, until its
// read-ahead budget is spent. Entries already gathered or with a gather in
// flight have consumed their read and are passed over.
//
//zinf:hotpath
func (e *ShardedEngine) readAhead() {
	e.trace.Each(func(next *pstate) bool {
		return next.p.Materialized() || next.spec.inFlight() || e.tier.ReadAhead(next.idx, e.Gathers)
	})
}

// release re-partitions p, recycling the gathered fp32 view. Replicated
// parameters stay materialized.
//
//zinf:hotpath
func (e *ShardedEngine) release(p *module.Param) {
	if !p.Materialized() || e.replicated() {
		return
	}
	if e.budget != nil {
		ps := e.states[p]
		e.budget.Release(ps.block)
		ps.block = mem.Block{}
	}
	e.live -= p.FP16Bytes()
	e.sc.F32.Put(p.Data())
	p.ReleaseData()
}

// onDemand is the Param.Data() interception: gather now and register the
// parameter as external to the module currently executing.
//
//zinf:hotpath
func (e *ShardedEngine) onDemand(p *module.Param) {
	e.gather(p)
	e.OnDemandGathers++
	if len(e.active) == 0 {
		return
	}
	m := e.active[len(e.active)-1]
	if e.states[p].owner == m {
		return
	}
	for _, q := range e.external[m] {
		if q == p {
			return
		}
	}
	e.external[m] = append(e.external[m], p) //zinf:allow hotpathalloc appends once per newly-discovered external param; steady state returns from the scan above
}

// enter opens m's hook scope and gathers its own and known-external params.
//
//zinf:hotpath
func (e *ShardedEngine) enter(m module.Module) {
	e.active = append(e.active, m)
	for _, p := range m.Params() {
		e.gather(p)
	}
	for _, p := range e.external[m] {
		e.gather(p)
	}
}

// leave closes m's hook scope and re-partitions the params used there,
// except externals an enclosing scope still needs.
//
//zinf:hotpath
func (e *ShardedEngine) leave(m module.Module) {
	e.active = e.active[:len(e.active)-1]
	for _, p := range m.Params() {
		e.release(p)
	}
	for _, p := range e.external[m] {
		if !e.inScope(p) {
			e.release(p)
		}
	}
}

// PreForward implements module.Hooks.
//
//zinf:hotpath
func (e *ShardedEngine) PreForward(m module.Module) { e.enter(m) }

// PostForward implements module.Hooks.
//
//zinf:hotpath
func (e *ShardedEngine) PostForward(m module.Module) { e.leave(m) }

// PreBackward implements module.Hooks.
//
//zinf:hotpath
func (e *ShardedEngine) PreBackward(m module.Module) { e.enter(m) }

// PostBackward implements module.Hooks: reduce each parameter's gradient,
// then re-partition.
//
//zinf:hotpath
func (e *ShardedEngine) PostBackward(m module.Module) {
	for _, p := range m.Params() {
		if p.HasGrad() {
			e.reduceGrad(p)
			p.ReleaseGrad()
		}
	}
	e.leave(m)
}

// reduceGrad issues the stage's gradient reduction for p into this rank's
// fp32 gradient shard — the one place a gradient collective starts:
//
//   - a fused reduce-scatter+decode of the 1/dp slices (ZeRO-2, ZeRO-3);
//   - a fused reduce+decode to the owning rank under PartitionBroadcast;
//   - an fp16 all-reduce (DDP, ZeRO-1), decoded when it is folded.
//
// All of them accumulate per element in rank order with fp32 arithmetic and
// round through binary16, so their reduced values are bit-identical; they
// differ only in where the result lands (nil on non-owner ranks under
// PartitionBroadcast) and which links carry the bytes. Every reduction joins
// the in-flight queue: with Overlap the oldest is waited and folded once
// more than reduceWindow are in flight, and the rest drain at the
// micro-batch boundary; without it the reduction is waited and folded here.
//
//zinf:hotpath
func (e *ShardedEngine) reduceGrad(p *module.Param) {
	ps := e.states[p]
	n, dp := p.Len(), e.c.Size()
	// The fp16 source is the whole gradient for an owner reduce, zero-padded
	// to dp equal slices otherwise.
	padded := n
	if ps.bcastRoot < 0 {
		padded = comm.PaddedLen(n, dp)
	}
	gh := e.sc.F16.Get(padded)
	e.rt.Backend().EncodeHalf(gh[:n], p.Grad())
	clear(gh[n:])
	gs := e.sc.F32.Get(ps.shardLen) // nil on non-owner ranks under PartitionBroadcast
	if e.cfg.OffloadOptimizer {
		e.BytesToCPU += int64(len(gs)) * tensor.HalfBytes // the shard moves to the CPU optimizer
	}
	var tk comm.Ticket
	switch {
	case e.cfg.Stage < Stage2:
		tk = e.c.AllReduceHalfAsync(gh[:n])
	case ps.bcastRoot >= 0:
		tk = e.c.ReduceHalfDecodeAsync(gs, gh, ps.bcastRoot)
	default:
		tk = e.c.ReduceScatterHalfDecodeAsync(gs, gh)
	}
	e.pendingReduces = append(e.pendingReduces, pendingReduce{ps: ps, ticket: tk, gs: gs, gh: gh})
	keep := 0
	if e.cfg.Overlap {
		e.AsyncReduces++
		keep = reduceWindow
	}
	e.drainReduces(keep)
}

// foldGradShard retires one completed reduction: an all-reduced gradient is
// first decoded into gs — the whole vector under DDP, this rank's 1/dp range
// over the cleared padded tail under ZeRO-1 — the fp16 source buffer is
// recycled, and the reduced fp32 shard (nil on non-owner ranks under
// PartitionBroadcast) becomes, or is accumulated into, ps's gradient shard
// (micro-batch accumulation).
//
//zinf:hotpath
func (e *ShardedEngine) foldGradShard(ps *pstate, gs []float32, gh []tensor.Half) {
	if e.cfg.Stage < Stage2 {
		lo := 0
		if e.cfg.Stage == Stage1 {
			lo, _ = comm.ShardRange(ps.p.Len(), e.c.Rank(), e.c.Size())
		}
		e.rt.Backend().DecodeHalf(gs, gh[lo:lo+ps.shardLen])
	}
	e.sc.F16.Put(gh)
	switch {
	case gs == nil:
	case ps.gradShard == nil:
		ps.gradShard = gs
	default:
		e.rt.Backend().Axpy(1, gs, ps.gradShard)
		e.sc.F32.Put(gs)
	}
}

// inScope reports whether p belongs to (or is external to) a module still
// on the active stack — if so it must stay materialized.
//
//zinf:hotpath
func (e *ShardedEngine) inScope(p *module.Param) bool {
	owner := e.states[p].owner
	for _, m := range e.active {
		if owner == m {
			return true
		}
		for _, q := range e.external[m] {
			if q == p {
				return true
			}
		}
	}
	return false
}

// Step is StepAccum over a single micro-batch.
//
//zinf:hotpath
func (e *ShardedEngine) Step(tokens, targets []int, batch int) (StepResult, error) {
	tok, tgt := MicroBatch(&e.microTok, &e.microTgt, tokens, targets)
	return e.StepAccum(tok, tgt, batch)
}

// StepAccum runs one training step with gradient accumulation over
// micro-batches (reduce per micro-batch, accumulate fp32 shards). A step the
// Budget cannot fit is unwound to the engine's between-steps state and
// returns the allocator's error (wrapping mem.ErrOutOfMemory or
// mem.ErrFragmented), parameters and optimizer state untouched. A failed
// Tier.Update is returned as is.
//
//zinf:hotpath
func (e *ShardedEngine) StepAccum(microTokens, microTargets [][]int, batchPerMicro int) (res StepResult, err error) {
	if len(microTokens) == 0 || len(microTokens) != len(microTargets) {
		panic("zero: StepAccum needs matching non-empty micro-batches")
	}
	e.meter.Begin()
	defer e.endStep(&err)
	dp := e.c.Size()
	micros := len(microTokens)
	scaleUsed := e.scaler.Scale

	var lossSum float64
	for m := 0; m < micros; m++ {
		if e.trace != nil {
			e.trace.BeginStep()
		}
		// The arena step brackets the micro-batch. EndStep runs after the
		// drains, so nothing launched in this micro-batch is in flight when
		// the activations are reclaimed (the async reductions only hold
		// Scratch fp16 buffers anyway).
		e.rt.BeginStep()
		lossSum += e.g.ForwardLoss(e.rt, microTokens[m], microTargets[m], batchPerMicro)
		e.g.BackwardLoss(e.rt, float32(scaleUsed))
		e.endMicroBatch()
		e.rt.EndStep()
	}
	globalLoss := e.c.AllReduceScalar(lossSum/float64(micros)) / float64(dp)

	// endMicroBatch drained every asynchronous reduction: the gradient
	// shards are complete before they are inspected for overflow.
	shards := e.shardsBuf[:0]
	for _, ps := range e.owned {
		shards = append(shards, ps.gradShard)
	}
	e.shardsBuf = shards
	if GlobalOverflow(e.c, e.rt.Backend(), shards) {
		e.scaler.Update(true)
		e.dropGradShards()
		return StepResult{Loss: globalLoss, Skipped: true, LossScale: e.scaler.Scale}, nil
	}

	// Unscale (and clip) before the optimizer phase so a streamed update
	// consumes finished gradients.
	inv := float32(1 / (scaleUsed * float64(dp) * float64(micros)))
	for _, ps := range e.owned {
		if ps.gradShard == nil {
			panic("zero: missing gradient shard for " + ps.p.Name)
		}
		e.rt.Backend().Scale(inv, ps.gradShard)
	}
	if f := e.clipFactor(shards); f != 1 {
		for _, gs := range shards {
			e.rt.Backend().Scale(float32(f), gs)
		}
	}
	e.stepCount++
	err = e.tier.Update(e.stepCount, e.ownedIdx, shards)
	for _, ps := range e.owned {
		ps.gradShard = nil // the tier took the buffers over
	}
	if err != nil {
		return StepResult{}, err
	}
	e.scaler.Update(false)
	return StepResult{Loss: globalLoss, LossScale: e.scaler.Scale}, nil
}

// clipFactor is GlobalClipFactor over this rank's gradient shards. Each DDP
// rank holds the whole reduced gradients, so it contributes only its 1/dp
// range of each: the global sum is then folded in the same rank-major order
// as under every partitioned stage.
//
//zinf:hotpath
func (e *ShardedEngine) clipFactor(shards [][]float32) float64 {
	if e.cfg.Stage != StageDDP || e.cfg.ClipNorm <= 0 {
		return GlobalClipFactor(e.c, e.cfg.ClipNorm, shards)
	}
	views := e.clipBuf[:0]
	for _, g := range shards {
		lo, hi := comm.ShardRange(len(g), e.c.Rank(), e.c.Size())
		views = append(views, g[min(lo, len(g)):min(hi, len(g))])
	}
	e.clipBuf = views
	return GlobalClipFactor(e.c, e.cfg.ClipNorm, views)
}

// endMicroBatch drains the speculation the micro-batch never consumed —
// gathers (issued on every rank, so their tickets always complete), then
// tier reads — finishes the trace step (arming speculation, or scheduling a
// relearn after divergence), and folds the micro-batch's async reductions,
// bounding retained gradient buffers to one micro-batch.
//
//zinf:hotpath
func (e *ShardedEngine) endMicroBatch() {
	if e.prefetch != nil {
		e.prefetch.drain()
	}
	e.tier.DrainReads()
	if e.trace != nil {
		e.trace.EndStep()
	}
	e.drainReduces(0)
}

// endStep is StepAccum's deferred tail: it records the step's
// process-global allocation count and turns a stepAbort into the step's
// error after unwinding — the single recover site.
//
//zinf:hotpath
func (e *ShardedEngine) endStep(err *error) {
	if r := recover(); r != nil {
		a, ok := r.(stepAbort)
		if !ok {
			panic(r)
		}
		e.unwind()
		*err = a.err
	}
	e.AllocsPerStep = e.meter.End()
}

// unwind returns the engine to its between-steps state after the Budget
// abandoned a step inside a gather: scopes popped, every materialized
// parameter (and its Budget block) released, speculative gathers, tier reads
// and pending reductions drained, partial gradients and offloaded
// checkpoints dropped. Every rank aborts at the same gather (see stepAbort),
// so the collectives drained here are matched.
//
//zinf:hotpath
func (e *ShardedEngine) unwind() {
	clear(e.active)
	e.active = e.active[:0]
	for _, p := range e.params {
		e.release(p)
		p.ReleaseGrad()
	}
	e.endMicroBatch()
	e.dropGradShards()
	if e.ckpt != nil {
		e.ckpt.Reset()
	}
	e.rt.SetSaveActivations(true)
	e.rt.EndStep()
}

// CheckIdle reports what, if anything, the engine still holds between
// steps; nil means every scope is closed, every partitioned parameter
// re-partitioned and no collective or gradient is pending.
func (e *ShardedEngine) CheckIdle() error {
	if len(e.active) != 0 || len(e.pendingReduces) != 0 {
		return fmt.Errorf("zero: %d module scopes open, %d reductions pending", len(e.active), len(e.pendingReduces))
	}
	for _, p := range e.params {
		ps := e.states[p]
		if (p.Materialized() && !e.replicated()) || p.HasGrad() || ps.spec.inFlight() || ps.gradShard != nil {
			return fmt.Errorf("zero: parameter %s still holds step state", p.Name)
		}
	}
	return nil
}

// dropGradShards recycles and forgets every gradient shard (overflow skip).
//
//zinf:hotpath
func (e *ShardedEngine) dropGradShards() {
	for _, ps := range e.owned {
		e.sc.F32.Put(ps.gradShard)
		ps.gradShard = nil
	}
}

// LoadParams replaces the model weights (sharding each full vector onto the
// tier, or installing it as a replicated parameter's weights) and resets the
// optimizer state. Every name and length is checked before anything changes.
// Values are rounded through fp16. Every rank must call it with identical
// values.
func (e *ShardedEngine) LoadParams(values map[string][]float32) error {
	for _, p := range e.params {
		v, ok := values[p.Name]
		if !ok {
			return fmt.Errorf("zero: checkpoint missing parameter %q", p.Name)
		}
		if len(v) != p.Len() {
			return fmt.Errorf("zero: checkpoint parameter %q has %d elems, want %d", p.Name, len(v), p.Len())
		}
	}
	for _, ps := range e.owned {
		full := tensor.RoundTripHalf(append([]float32(nil), values[ps.p.Name]...))
		if e.replicated() {
			ps.p.SetData(full)
		}
		if err := e.place(ps, full); err != nil {
			return err
		}
	}
	e.stepCount = 0
	return nil
}

// FullParams returns every parameter's current fp16 values. Partitioned
// parameters are gathered (collective: all ranks must call it together); a
// replicated parameter is copied. The transient gathered view cycles
// through the Scratch — only the returned float32 vectors are fresh
// allocations (asserted by TestFullParamsGatherScratchPooled).
func (e *ShardedEngine) FullParams() map[string][]float32 {
	out := make(map[string][]float32, len(e.params))
	for _, p := range e.params {
		v := make([]float32, p.Len())
		if p.Materialized() {
			copy(v, p.Data())
		} else {
			ps := e.states[p]
			e.issueGather(ps)
			full := e.awaitGather(ps)
			copy(v, full)
			e.sc.F32.Put(full)
		}
		out[p.Name] = v
	}
	return out
}

// MaxLiveParamBytes returns the measured peak fp16 footprint of
// simultaneously materialized (gathered) parameters — the working-set
// contribution memory-centric tiling divides by the tile factor.
func (e *ShardedEngine) MaxLiveParamBytes() int64 { return e.peakLive }

// Stats summarizes one engine's activity for the experiment harness. The
// engine body fills the gather, overlap, working-set, allocation and comm
// fields; internal/core adds its tier's and attachments' on top.
type Stats struct {
	Gathers         int
	OnDemandGathers int
	// PrefetchIssued/PrefetchHits count the tier's read-ahead stage; the
	// CommPrefetch pair counts the gather stage; AsyncReduces counts
	// gradient reductions launched asynchronously from the backward hooks.
	PrefetchHits       int
	PrefetchIssued     int
	CommPrefetchIssued int
	CommPrefetchHits   int
	AsyncReduces       int
	NVMeBytesRead      int64
	NVMeBytesWritten   int64
	// MaxLiveParamBytes is the peak fp16 footprint of simultaneously
	// materialized (gathered) parameters.
	MaxLiveParamBytes int64
	// PinnedBytes is the NVMe tier's staging ring: its buffer count times
	// the largest optimizer record. PinnedAcquires counts the transfers
	// staged through it — reads, read-aheads and write-backs alike.
	PinnedBytes      int64
	PinnedAcquires   int64
	CkptBytesOffload int64
	GPUPeakBytes     int64
	// AllocsPerStep is the number of heap allocations performed during the
	// last step (/gc/heap/allocs:objects runtime-metrics delta). The counter
	// is process-global, so with several rank goroutines stepping in
	// lockstep it reflects the whole world's step; after the scratch arenas
	// warm up the engine+comm+tensor contribution is zero.
	AllocsPerStep uint64
	// CommTraffic is the collective fabric's cumulative modeled traffic per
	// collective kind — ops, intra/inter-node bytes, simulated transfer
	// seconds and achieved aggregate bandwidth (TrafficStats.AggGBps). The
	// counters are world-wide (all ranks' collectives), which is what the
	// Fig. 6c aggregate-bandwidth comparison wants.
	CommTraffic map[string]comm.TrafficStats
	// CommGBps is the achieved aggregate bandwidth across every collective
	// kind (0 without a topology: the flat fabric has no link timing).
	CommGBps float64
}

// Stats returns cumulative engine statistics.
func (e *ShardedEngine) Stats() Stats {
	return Stats{
		Gathers:            e.Gathers,
		OnDemandGathers:    e.OnDemandGathers,
		CommPrefetchIssued: e.PrefetchIssued,
		CommPrefetchHits:   e.PrefetchHits,
		AsyncReduces:       e.AsyncReduces,
		MaxLiveParamBytes:  e.peakLive,
		AllocsPerStep:      e.AllocsPerStep,
		CommTraffic:        e.c.Traffic(),
		CommGBps:           e.c.TrafficTotal().AggGBps(),
	}
}

var _ module.Hooks = (*ShardedEngine)(nil)
