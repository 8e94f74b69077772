package zeroinf

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"repro/internal/tensor"
)

// Consolidated fp16 checkpoint format (the analogue of DeepSpeed's
// zero_to_fp32 consolidation): weights only, optimizer state is reset on
// load. Layout (little endian):
//
//	magic "ZINF" | u32 version | u32 param count |
//	repeated: u32 name length | name | u64 elems | elems × binary16
//
// Parameters are written sorted by name so checkpoints are byte-for-byte
// reproducible.
const (
	ckptMagic   = "ZINF"
	ckptVersion = 1
)

// WriteCheckpoint serializes the full parameter map (as returned by
// Engine.FullParams) to w, rounding values through fp16.
func WriteCheckpoint(w io.Writer, params map[string][]float32) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(ckptMagic); err != nil {
		return err
	}
	names := make([]string, 0, len(params))
	for n := range params {
		names = append(names, n)
	}
	sort.Strings(names)
	if err := binary.Write(bw, binary.LittleEndian, uint32(ckptVersion)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(names))); err != nil {
		return err
	}
	for _, name := range names {
		v := params[name]
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(name))); err != nil {
			return err
		}
		if _, err := bw.WriteString(name); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint64(len(v))); err != nil {
			return err
		}
		h := make([]tensor.Half, len(v))
		tensor.EncodeHalf(h, v)
		b := make([]byte, 2*len(h))
		tensor.HalfToBytes(b, h)
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCheckpoint parses a checkpoint written by WriteCheckpoint.
func ReadCheckpoint(r io.Reader) (map[string][]float32, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(ckptMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("zeroinf: read checkpoint magic: %w", err)
	}
	if string(magic) != ckptMagic {
		return nil, fmt.Errorf("zeroinf: bad checkpoint magic %q", magic)
	}
	var version, count uint32
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, err
	}
	if version != ckptVersion {
		return nil, fmt.Errorf("zeroinf: unsupported checkpoint version %d", version)
	}
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return nil, err
	}
	const maxParams = 1 << 24
	if count > maxParams {
		return nil, fmt.Errorf("zeroinf: implausible parameter count %d", count)
	}
	out := make(map[string][]float32, count)
	// Element payloads are read in bounded chunks so a lying header (a huge
	// declared count on a tiny or adversarial stream) fails with EOF after
	// consuming only the bytes actually present, instead of pre-allocating
	// the claimed size.
	const chunkElems = 1 << 16
	var (
		chunkBytes [2 * chunkElems]byte
		chunkHalf  [chunkElems]tensor.Half
		chunkF32   [chunkElems]float32
	)
	for i := uint32(0); i < count; i++ {
		var nameLen uint32
		if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
			return nil, err
		}
		if nameLen > 1<<16 {
			return nil, fmt.Errorf("zeroinf: implausible name length %d", nameLen)
		}
		nameBytes := make([]byte, nameLen)
		if _, err := io.ReadFull(br, nameBytes); err != nil {
			return nil, err
		}
		var elems uint64
		if err := binary.Read(br, binary.LittleEndian, &elems); err != nil {
			return nil, err
		}
		if elems > 1<<40 {
			return nil, fmt.Errorf("zeroinf: implausible element count %d", elems)
		}
		v := make([]float32, 0, min(elems, chunkElems))
		for got := uint64(0); got < elems; {
			n := min(elems-got, chunkElems)
			b := chunkBytes[:2*n]
			if _, err := io.ReadFull(br, b); err != nil {
				return nil, err
			}
			h := chunkHalf[:n]
			tensor.HalfFromBytes(h, b)
			f := chunkF32[:n]
			tensor.DecodeHalf(f, h)
			v = append(v, f...)
			got += n
		}
		name := string(nameBytes)
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("zeroinf: duplicate parameter %q in checkpoint", name)
		}
		out[name] = v
	}
	// The declared count must exhaust the stream: trailing bytes mean a
	// corrupt or truncated-count file, not extra harmless padding.
	if _, err := br.ReadByte(); err == nil {
		return nil, fmt.Errorf("zeroinf: trailing bytes after %d checkpoint parameters", count)
	} else if err != io.EOF {
		return nil, err
	}
	return out, nil
}
