package zero

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/tensor"
)

// Rank-state wire layout, written and read by the one writer/reader pair in
// statefile.go that every engine body's SaveRankState/LoadRankState calls:
//
//	"ZST2" | u32 rank | u32 world | u64 step | f64 scale |
//	u32 goodSteps | u32 skipped | u32 count | records
//
// each record being
//
//	u32 name len | name | u64 shard len | master f32s | m f32s | v f32s
//
// goodSteps is the loss scaler's clean-step counter: without it a resumed
// run doubles the scale at a different step than the uninterrupted run,
// breaking bit-identical replay. Any other magic is refused.
const rankStateMagic = "ZST2"

// writeParamHeader writes one record's name and shard length.
func writeParamHeader(bw *bufio.Writer, name string, shardLen int) error {
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(name))); err != nil {
		return err
	}
	if _, err := bw.WriteString(name); err != nil {
		return err
	}
	return binary.Write(bw, binary.LittleEndian, uint64(shardLen))
}

// readParamHeader reads one record's name and shard length, bounding the
// name so corrupt input cannot trigger huge allocations.
func readParamHeader(br *bufio.Reader) (string, uint64, error) {
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
