package zero

import (
	"bufio"
	"fmt"
	"io"
)

// Rank-local training-state checkpoints for exact resume — the analogue of
// DeepSpeed's per-rank ZeRO checkpoints: each rank serializes its own fp32
// master shards, Adam moments, step counter and full loss-scaler state.
// Loading the same files into fresh engines continues training
// bit-identically (asserted in tests and by the kill/resume replay harness),
// whichever tier wrote them and whichever loads them: the record is the f32
// bytes of master||m||v, which resident tiers serialize and the NVMe tier
// streams raw. The wire layout lives in statecodec.go; v1 files remain
// readable.

// SaveRankState writes this rank's full training state to w in the v2
// layout. Per-rank only (no collectives), which is what lets the async
// checkpoint writer pipeline serialization with training. Only owned
// parameters are written, so the format is valid under both partitioning
// strategies.
func (e *ShardedEngine) SaveRankState(w io.Writer) error {
	bw := bufio.NewWriter(w)
	scale, goodSteps, skipped := e.scaler.State()
	err := WriteStateHeader(bw, StateHeader{
		Rank: e.c.Rank(), World: e.c.Size(), Step: e.stepCount,
		Scale: scale, GoodSteps: goodSteps, Skipped: skipped,
		Count: len(e.owned),
	})
	if err != nil {
		return err
	}
	var codec VecCodec
	for _, ps := range e.owned {
		if err := WriteParamHeader(bw, ps.p.Name, ps.shardLen); err != nil {
			return err
		}
		if err := e.tier.SaveOpt(ps.idx, bw, &codec); err != nil {
			return fmt.Errorf("zero: save state shard %q: %w", ps.p.Name, err)
		}
	}
	return bw.Flush()
}

// LoadRankState restores state saved by SaveRankState (v1 or v2) and
// rebuilds each fp16 parameter shard on its tier from the restored master.
// The world size and rank must match. On error the engine state may be
// partially overwritten; load into fresh engines.
func (e *ShardedEngine) LoadRankState(r io.Reader) error {
	br := bufio.NewReader(r)
	h, err := ReadStateHeader(br)
	if err != nil {
		return err
	}
	if h.Rank != e.c.Rank() || h.World != e.c.Size() {
		return fmt.Errorf("zero: state is for rank %d/%d, engine is rank %d/%d",
			h.Rank, h.World, e.c.Rank(), e.c.Size())
	}
	// v1 files (written before broadcast partitioning had rank state) carry
	// one record per model parameter; v2 carries one per owned parameter.
	want := len(e.owned)
	if h.Version == 1 {
		want = len(e.params)
	}
	if h.Count != want {
		return fmt.Errorf("zero: state has %d params, engine owns %d", h.Count, want)
	}
	e.scaler.Restore(h.Scale, h.GoodSteps, h.Skipped)
	e.stepCount = h.Step

	byName := make(map[string]*pstate, len(e.params))
	for _, ps := range e.states {
		byName[ps.p.Name] = ps
	}
	var codec VecCodec
	for i := 0; i < h.Count; i++ {
		name, shardLen, err := ReadParamHeader(br)
		if err != nil {
			return err
		}
		ps, ok := byName[name]
		if !ok {
			return fmt.Errorf("zero: state parameter %q not in model", name)
		}
		if ps.shardLen == 0 {
			return fmt.Errorf("zero: state parameter %q is not owned by rank %d", name, e.c.Rank())
		}
		if int(shardLen) != ps.shardLen {
			return fmt.Errorf("zero: state shard %q has %d elems, want %d", name, shardLen, ps.shardLen)
		}
		if err := e.tier.LoadOpt(ps.idx, br, &codec); err != nil {
			return fmt.Errorf("zero: read state shard %q: %w", name, err)
		}
	}
	return nil
}
