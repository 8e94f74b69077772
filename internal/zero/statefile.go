package zero

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Rank-local training-state checkpoints for exact resume — the analogue of
// DeepSpeed's per-rank ZeRO checkpoints: each rank serializes its own fp32
// master shards, Adam moments, step counter and full loss-scaler state.
// Loading the same files into fresh engines continues training
// bit-identically (asserted in tests and by the kill/resume replay harness),
// whichever stage or tier wrote them and whichever loads them. A record is
// the f32 bytes of master||m||v, which resident tiers serialize and the NVMe
// tier streams raw; a ZeRO-2 file therefore equals the sliced ZeRO-3 file of
// the same run byte for byte. The wire layout lives in statecodec.go.

// SaveRankState writes this rank's full training state to w: the scaler and
// optimizer step counter, then one record per owned parameter in parameter
// order (so the format is valid under both partitioning strategies). It is
// per-rank only (no collectives), which is what lets the async checkpoint
// writer pipeline serialization with training.
func (e *ShardedEngine) SaveRankState(w io.Writer) error {
	bw := bufio.NewWriter(w)
	scale, goodSteps, skipped := e.scaler.State()
	if _, err := bw.WriteString(rankStateMagic); err != nil {
		return err
	}
	header := []any{
		uint32(e.c.Rank()), uint32(e.c.Size()), uint64(e.stepCount), math.Float64bits(scale),
		uint32(goodSteps), uint32(skipped), uint32(len(e.owned)),
	}
	for _, v := range header {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	var codec VecCodec
	for _, ps := range e.owned {
		if err := writeParamHeader(bw, ps.p.Name, ps.shardLen); err != nil {
			return err
		}
		if err := e.tier.SaveOpt(ps.idx, bw, &codec); err != nil {
			return fmt.Errorf("zero: save state shard %q: %w", ps.p.Name, err)
		}
	}
	return bw.Flush()
}

// LoadRankState restores state saved by SaveRankState. The rank and world
// size must match and the file must hold exactly one record for each
// parameter the rank owns. Each record rebuilds the fp16 shard on its tier;
// under the replicated stages the weights are rebuilt once every record is
// read, which under ZeRO-1/2 is a collective, so every rank must call
// LoadRankState together — same contract as LoadParams. Corrupt input
// yields an error, never a panic; on error the engine state may be
// partially overwritten, so load into fresh engines.
func (e *ShardedEngine) LoadRankState(r io.Reader) error {
	br := bufio.NewReader(r)
	magic := make([]byte, len(rankStateMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return fmt.Errorf("zero: read state magic: %w", err)
	}
	if string(magic) != rankStateMagic {
		return fmt.Errorf("zero: bad state magic %q", magic)
	}
	var rank, world, goodSteps, skipped, count uint32
	var step, scaleBits uint64
	for _, v := range []any{&rank, &world, &step, &scaleBits, &goodSteps, &skipped, &count} {
		if err := binary.Read(br, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("zero: read state header: %w", err)
		}
	}
	if int(rank) != e.c.Rank() || int(world) != e.c.Size() {
		return fmt.Errorf("zero: state is for rank %d/%d, engine is rank %d/%d",
			rank, world, e.c.Rank(), e.c.Size())
	}
	if int(count) != len(e.owned) {
		return fmt.Errorf("zero: state has %d params, engine owns %d", count, len(e.owned))
	}
	e.scaler.Restore(math.Float64frombits(scaleBits), int(goodSteps), int(skipped))
	e.stepCount = int(step)

	byName := make(map[string]*pstate, len(e.params))
	for _, p := range e.params {
		byName[p.Name] = e.states[p]
	}
	seen := make([]bool, len(e.params))
	var codec VecCodec
	for k := 0; k < int(count); k++ {
		name, shardLen, err := readParamHeader(br)
		if err != nil {
			return err
		}
		ps, ok := byName[name]
		switch {
		case !ok:
			return fmt.Errorf("zero: state parameter %q not in model", name)
		case seen[ps.idx]:
			return fmt.Errorf("zero: state parameter %q appears twice", name)
		case ps.shardLen == 0:
			return fmt.Errorf("zero: state parameter %q is not owned by rank %d", name, e.c.Rank())
		case int(shardLen) != ps.shardLen:
			return fmt.Errorf("zero: state shard %q has %d elems, want %d", name, shardLen, ps.shardLen)
		}
		seen[ps.idx] = true
		if err := e.tier.LoadOpt(ps.idx, br, &codec); err != nil {
			return fmt.Errorf("zero: read state shard %q: %w", name, err)
		}
	}
	if t, ok := e.tier.(*replicaTier); ok {
		for _, ps := range e.owned {
			t.materialize(ps.idx, t.Opt[ps.idx].Master)
		}
	}
	return nil
}
