package zero

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/tensor"
)

// Shared rank-state wire codec, used by every engine's
// SaveRankState/LoadRankState (ShardedEngine — on any tier — and DPEngine). Two
// versions exist:
//
//	v1 "ZST1": magic | u32 rank | u32 world | u64 step | f64 scale |
//	           u32 skipped | u32 count | records
//	v2 "ZST2": magic | u32 rank | u32 world | u64 step | f64 scale |
//	           u32 goodSteps | u32 skipped | u32 count | records
//
// each record being
//
//	u32 name len | name | u64 shard len | master f32s | m f32s | v f32s
//
// v2 adds the loss scaler's clean-step counter: without it a resumed run
// doubles the scale at a different step than the uninterrupted run, breaking
// bit-identical replay. v1 files remain readable (goodSteps loads as 0 — the
// historical behaviour).
const (
	rankStateMagic   = "ZST1"
	rankStateMagicV2 = "ZST2"
)

// StateHeader is the decoded fixed-size head of a rank-state file.
type StateHeader struct {
	Version   int // 1 or 2
	Rank      int
	World     int
	Step      int // shared optimizer step counter
	Scale     float64
	GoodSteps int // clean steps toward the next scale growth (v2 only)
	Skipped   int
	Count     int // parameter records that follow
}

// WriteStateHeader writes h in the v2 layout.
func WriteStateHeader(bw *bufio.Writer, h StateHeader) error {
	if _, err := bw.WriteString(rankStateMagicV2); err != nil {
		return err
	}
	fields := []any{
		uint32(h.Rank), uint32(h.World), uint64(h.Step),
		math.Float64bits(h.Scale),
		uint32(h.GoodSteps), uint32(h.Skipped), uint32(h.Count),
	}
	for _, v := range fields {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	return nil
}

// ReadStateHeader reads a v1 or v2 header, reporting the version in the
// result. Corrupt input yields an error, never a panic.
func ReadStateHeader(br *bufio.Reader) (StateHeader, error) {
	magic := make([]byte, len(rankStateMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return StateHeader{}, fmt.Errorf("zero: read state magic: %w", err)
	}
	var h StateHeader
	switch string(magic) {
	case rankStateMagic:
		h.Version = 1
	case rankStateMagicV2:
		h.Version = 2
	default:
		return StateHeader{}, fmt.Errorf("zero: bad state magic %q", magic)
	}
	var rank, world uint32
	var step, scaleBits uint64
	var goodSteps, skipped, count uint32
	fields := []any{&rank, &world, &step, &scaleBits}
	if h.Version == 2 {
		fields = append(fields, &goodSteps)
	}
	fields = append(fields, &skipped, &count)
	for _, v := range fields {
		if err := binary.Read(br, binary.LittleEndian, v); err != nil {
			return StateHeader{}, fmt.Errorf("zero: read state header: %w", err)
		}
	}
	h.Rank, h.World, h.Step = int(rank), int(world), int(step)
	h.Scale = math.Float64frombits(scaleBits)
	h.GoodSteps, h.Skipped, h.Count = int(goodSteps), int(skipped), int(count)
	return h, nil
}

// WriteParamHeader writes one record's name and shard length.
func WriteParamHeader(bw *bufio.Writer, name string, shardLen int) error {
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(name))); err != nil {
		return err
	}
	if _, err := bw.WriteString(name); err != nil {
		return err
	}
	return binary.Write(bw, binary.LittleEndian, uint64(shardLen))
}

// ReadParamHeader reads one record's name and shard length, bounding the
// name so corrupt input cannot trigger huge allocations.
func ReadParamHeader(br *bufio.Reader) (string, uint64, error) {
	var nameLen uint32
	if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
		return "", 0, err
	}
	if nameLen > 1<<16 {
		return "", 0, fmt.Errorf("zero: implausible name length %d", nameLen)
	}
	nameBytes := make([]byte, nameLen)
	if _, err := io.ReadFull(br, nameBytes); err != nil {
		return "", 0, err
	}
	var shardLen uint64
	if err := binary.Read(br, binary.LittleEndian, &shardLen); err != nil {
		return "", 0, err
	}
	return string(nameBytes), shardLen, nil
}

// VecCodec moves float32 vectors across the byte stream through one
// grown-on-demand staging buffer, so a whole Save or Load performs a
// bounded number of allocations instead of one per vector.
type VecCodec struct {
	buf []byte
}

func (c *VecCodec) stage(n int) []byte {
	if cap(c.buf) < n {
		c.buf = make([]byte, n)
	}
	return c.buf[:n]
}

// WriteVec serializes v.
func (c *VecCodec) WriteVec(bw *bufio.Writer, v []float32) error {
	b := c.stage(4 * len(v))
	tensor.F32ToBytes(b, v)
	_, err := bw.Write(b)
	return err
}

// ReadVec fills dst from the stream (the caller owns dst, so loads land
// directly in engine state with no intermediate vector allocation).
func (c *VecCodec) ReadVec(r io.Reader, dst []float32) error {
	b := c.stage(4 * len(dst))
	if _, err := io.ReadFull(r, b); err != nil {
		return err
	}
	tensor.F32FromBytes(dst, b)
	return nil
}
