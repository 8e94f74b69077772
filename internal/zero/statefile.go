package zero

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/comm"
	"repro/internal/module"
	"repro/internal/optim"
)

// Rank-local training-state checkpoints for exact resume — the analogue of
// DeepSpeed's per-rank ZeRO checkpoints: each rank serializes its own fp32
// master shards, Adam moments, step counter and full loss-scaler state.
// Loading the same files into fresh engines continues training
// bit-identically (asserted in tests and by the kill/resume replay harness),
// whichever engine body or tier wrote them and whichever loads them: both
// bodies go through the one writer/reader pair below, and the record is the
// f32 bytes of master||m||v, which resident tiers serialize and the NVMe
// tier streams raw. The wire layout lives in statecodec.go.

// rankState is one engine body as the rank-state codec sees it: the rank,
// the scaler and optimizer step counter saved whole, and one optimizer
// record per parameter the rank holds state for.
type rankState struct {
	c      *comm.Comm
	scaler *optim.LossScaler
	step   *int
	params []*module.Param
	// shardLen is this rank's record length for parameter i; 0 means the
	// rank holds no record for it (owner-rank partitioning).
	shardLen func(i int) int
	save     func(i int, w *bufio.Writer, codec *VecCodec) error
	load     func(i int, r *bufio.Reader, codec *VecCodec) error
}

// records returns how many parameters the rank holds a record for.
func (s rankState) records() int {
	n := 0
	for i := range s.params {
		if s.shardLen(i) > 0 {
			n++
		}
	}
	return n
}

// write serializes the state to w, records in parameter order. Per-rank
// only (no collectives), which is what lets the async checkpoint writer
// pipeline serialization with training.
func (s rankState) write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	scale, goodSteps, skipped := s.scaler.State()
	if _, err := bw.WriteString(rankStateMagic); err != nil {
		return err
	}
	header := []any{
		uint32(s.c.Rank()), uint32(s.c.Size()), uint64(*s.step), math.Float64bits(scale),
		uint32(goodSteps), uint32(skipped), uint32(s.records()),
	}
	for _, v := range header {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	var codec VecCodec
	for i, p := range s.params {
		n := s.shardLen(i)
		if n == 0 {
			continue
		}
		if err := writeParamHeader(bw, p.Name, n); err != nil {
			return err
		}
		if err := s.save(i, bw, &codec); err != nil {
			return fmt.Errorf("zero: save state shard %q: %w", p.Name, err)
		}
	}
	return bw.Flush()
}

// read restores state written by write. The rank and world size must match
// and the file must hold exactly one record for each parameter the rank
// holds state for. Corrupt input yields an error, never a panic; on error
// the engine state may be partially overwritten, so load into fresh engines.
func (s rankState) read(r io.Reader) error {
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
	if int(rank) != s.c.Rank() || int(world) != s.c.Size() {
		return fmt.Errorf("zero: state is for rank %d/%d, engine is rank %d/%d",
			rank, world, s.c.Rank(), s.c.Size())
	}
	if want := s.records(); int(count) != want {
		return fmt.Errorf("zero: state has %d params, engine owns %d", count, want)
	}
	s.scaler.Restore(math.Float64frombits(scaleBits), int(goodSteps), int(skipped))
	*s.step = int(step)

	byName := make(map[string]int, len(s.params))
	for i, p := range s.params {
		byName[p.Name] = i
	}
	seen := make([]bool, len(s.params))
	var codec VecCodec
	for k := 0; k < int(count); k++ {
		name, shardLen, err := readParamHeader(br)
		if err != nil {
			return err
		}
		i, ok := byName[name]
		switch {
		case !ok:
			return fmt.Errorf("zero: state parameter %q not in model", name)
		case seen[i]:
			return fmt.Errorf("zero: state parameter %q appears twice", name)
		case s.shardLen(i) == 0:
			return fmt.Errorf("zero: state parameter %q is not owned by rank %d", name, s.c.Rank())
		case int(shardLen) != s.shardLen(i):
			return fmt.Errorf("zero: state shard %q has %d elems, want %d", name, shardLen, s.shardLen(i))
		}
		seen[i] = true
		if err := s.load(i, br, &codec); err != nil {
			return fmt.Errorf("zero: read state shard %q: %w", name, err)
		}
	}
	return nil
}

// SaveRankState writes this rank's full training state to w: one record
// per owned parameter, so the format is valid under both partitioning
// strategies.
func (e *ShardedEngine) SaveRankState(w io.Writer) error { return e.rankState().write(w) }

// LoadRankState restores state saved by SaveRankState and rebuilds each
// fp16 parameter shard on its tier from the restored master. The world size
// and rank must match.
func (e *ShardedEngine) LoadRankState(r io.Reader) error { return e.rankState().read(r) }

// rankState describes the sharded engine to the codec: one record per owned
// parameter, moved by the tier.
func (e *ShardedEngine) rankState() rankState {
	return rankState{
		c: e.c, scaler: e.scaler, step: &e.stepCount, params: e.params,
		shardLen: func(i int) int { return e.states[e.params[i]].shardLen },
		save:     e.tier.SaveOpt, load: e.tier.LoadOpt,
	}
}

// SaveRankState writes this rank's full training state to w. Every rank
// holds optimizer state for every parameter — the full vector under DDP,
// this rank's 1/dp shard under ZeRO-1/2 — in the sharded engine's layout,
// so a ZeRO-2 file equals the sliced ZeRO-3 file of the same run byte for
// byte.
func (e *DPEngine) SaveRankState(w io.Writer) error { return e.rankState().write(w) }

// LoadRankState restores state saved by SaveRankState, then rebuilds the
// replicated fp16 weights from the restored masters. Under ZeRO-1/2 the
// rebuild is a collective (fused allgather+encode), so every rank must call
// LoadRankState together — same contract as LoadParams.
func (e *DPEngine) LoadRankState(r io.Reader) error {
	if err := e.rankState().read(r); err != nil {
		return err
	}
	for i, p := range e.params {
		e.materialize(p, e.opt.Opt[i].Master)
	}
	return nil
}

// rankState describes the replicated engine to the codec: one record per
// parameter, read into the resident optimizer store.
func (e *DPEngine) rankState() rankState {
	return rankState{
		c: e.c, scaler: e.scaler, step: &e.stepCount, params: e.params,
		shardLen: func(i int) int { return len(e.opt.Opt[i].Master) },
		save:     e.opt.SaveOpt,
		load: func(i int, r *bufio.Reader, codec *VecCodec) error {
			_, err := e.opt.ReadOpt(i, r, codec)
			return err
		},
	}
}
